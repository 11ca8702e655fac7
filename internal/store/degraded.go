package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"wsdeploy/internal/faultfs"
)

// Degraded mode: when a WAL write or fsync fails, the store cannot
// know how much of the record reached stable storage, and POSIX gives
// no useful semantics for retrying fsync on a dirty handle (the kernel
// may have already dropped the unwritable pages — a later fsync
// "success" would acknowledge data that is gone). So the store
// fail-stops: the error is sticky, every subsequent Append and
// Snapshot is rejected with ErrDegraded, the dirty handle is never
// fsynced again, and no acknowledged counter moved for the failed
// record. Recovery goes through Reopen, which quarantines the
// untrusted tail (every byte past the last acknowledged record) into
// wal.quarantine, truncates the WAL back to the acknowledged boundary,
// re-verifies the whole log by scan, and proves the write path works
// before clearing the fault.
//
// Under SyncInterval/SyncNone, records acknowledged between fsyncs are
// already allowed to be lost on power cut by the mode's contract;
// fail-stop quarantines from the failed record's start, keeping those
// earlier acknowledgements intact in the page cache for Reopen.

// ErrDegraded is wrapped by every error a fail-stopped store returns;
// callers map errors.Is(err, ErrDegraded) to degraded read-only mode
// (503 + Retry-After at the HTTP layer).
var ErrDegraded = errors.New("store: degraded: journal fail-stopped")

// quarantineName holds tail bytes Reopen moved aside: unacknowledged,
// possibly torn frames kept for forensics rather than deleted.
const quarantineName = "wal.quarantine"

// failStopLocked makes the store degraded (idempotent — the first
// fault wins) and returns the sticky error. goodEnd is the
// acknowledged byte boundary; everything past it is untrusted. The
// caller holds s.mu.
func (s *Store) failStopLocked(op string, cause error, goodEnd int64) error {
	if s.failed == nil {
		s.failed = fmt.Errorf("%w (%s: %v)", ErrDegraded, op, cause)
		s.quarantineFrom = goodEnd
		if !s.degradedUp {
			obsDegraded.Add(1)
			s.degradedUp = true
		}
	}
	return s.failed
}

// Failed reports the sticky fail-stop cause, or nil when the store is
// healthy. The daemon derives a tenant's degraded mode from this.
func (s *Store) Failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// Reopen is the degraded-mode recovery probe. On a healthy store it is
// a no-op. On a fail-stopped store it drops the dirty handle,
// quarantines the untrusted tail, truncates the WAL back to the last
// acknowledged byte, re-verifies the log end to end, reopens the
// append handle and proves fsync works — only then does the fault
// clear and the store accept appends again. If the disk is still sick
// the store stays degraded and Reopen returns the blocking error; the
// probe is safe to call repeatedly.
func (s *Store) Reopen() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: reopen: store is closed")
	}
	if s.failed == nil {
		return nil
	}
	fsys := s.opts.FS
	walPath := filepath.Join(s.dir, walName)

	// 1. Drop the dirty handle. Its buffered state is unknowable; it
	// must never be fsynced. Close errors are irrelevant — the data
	// contract is re-established from the file contents below.
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}

	// 2. Quarantine and cut the untrusted tail. The tail bytes are
	// preserved (best-effort) rather than deleted: they are evidence.
	raw, err := fsys.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: reopen: reading WAL: %w (%v)", s.failed, err)
	}
	if int64(len(raw)) > s.quarantineFrom {
		tail := raw[s.quarantineFrom:]
		if qf, qerr := fsys.OpenFile(filepath.Join(s.dir, quarantineName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); qerr == nil {
			qf.Write(tail)
			qf.Close()
		}
		if err := fsys.Truncate(walPath, s.quarantineFrom); err != nil {
			return fmt.Errorf("store: reopen: truncating untrusted tail: %w (%v)", s.failed, err)
		}
		s.quarantined += int64(len(tail))
		obsQuarantined.Add(int64(len(tail)))
		raw = raw[:s.quarantineFrom]
	}

	// 3. Re-verify the log end to end: every frame intact, no torn
	// tail (the cut landed on an acknowledged frame boundary), and the
	// newest record is exactly the last acknowledged sequence. Any
	// mismatch means acknowledged data is damaged — stay degraded.
	scan, err := scanWAL(raw, s.snapshotSeq, s.opts.maxRecord)
	if err != nil {
		return fmt.Errorf("store: reopen: verifying WAL: %w (%v)", s.failed, err)
	}
	if scan.torn > 0 {
		return fmt.Errorf("store: reopen: verifying WAL: %w (torn frame inside acknowledged bytes: %s)", s.failed, scan.tornNote)
	}
	verified := s.snapshotSeq
	if n := len(scan.records); n > 0 && scan.records[n-1].Seq > verified {
		verified = scan.records[n-1].Seq
	}
	if verified != s.lastSeq {
		return fmt.Errorf("store: reopen: verifying WAL: %w (log reaches seq %d, acknowledged %d)", s.failed, verified, s.lastSeq)
	}

	// 4. Reopen the append handle and prove the write path: a
	// successful fsync on the clean handle is the exit criterion.
	wal, err := fsys.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopen: opening WAL: %w (%v)", s.failed, err)
	}
	if err := wal.Sync(); err != nil {
		wal.Close()
		countFaultOp(faultfs.OpSync)
		return fmt.Errorf("store: reopen: proving fsync: %w (%v)", s.failed, err)
	}

	// 5. Healthy again.
	s.wal = wal
	s.walBytes = scan.goodEnd
	s.walRecords = int64(len(scan.records))
	s.walFirst = scan.first(s.lastSeq)
	s.lastSync = s.opts.now()
	s.failed = nil
	s.quarantineFrom = 0
	s.reopens++
	obsReopens.Inc()
	if s.degradedUp {
		obsDegraded.Add(-1)
		s.degradedUp = false
	}
	return nil
}

// RetryAfter is the Retry-After hint (seconds granularity at the HTTP
// layer) callers should surface while a store is degraded — roughly
// the recovery probe's cadence.
const RetryAfter = 5 * time.Second
