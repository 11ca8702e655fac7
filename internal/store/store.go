package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"wsdeploy/internal/faultfs"
	"wsdeploy/internal/obs"
)

// Process-wide durability metrics on the shared obs registry: the
// daemon's /metrics shows the WAL's write and recovery activity next to
// the engine, fabric and fleet series. The store.fault_* counters and
// the store.degraded gauge surface disk misbehaviour: how many
// write/fsync/rename operations failed, and how many stores are
// currently fail-stopped waiting for a successful Reopen.
var (
	obsAppends      = obs.Default().Counter("store.appends")
	obsReplays      = obs.Default().Counter("store.records_replayed")
	obsSnapshots    = obs.Default().Counter("store.snapshots")
	obsTorn         = obs.Default().Counter("store.torn_truncations")
	obsFsync        = obs.Default().Histogram("store.fsync_seconds")
	obsAppendTime   = obs.Default().Histogram("store.append_seconds")
	obsFaultWrites  = obs.Default().Counter("store.fault_writes")
	obsFaultSyncs   = obs.Default().Counter("store.fault_syncs")
	obsFaultRenames = obs.Default().Counter("store.fault_renames")
	obsReopens      = obs.Default().Counter("store.reopens")
	obsQuarantined  = obs.Default().Counter("store.quarantined_bytes")
	obsDegraded     = obs.Default().Gauge("store.degraded")
)

// countFaultOp feeds the per-class fault counters from an op tag.
func countFaultOp(op faultfs.Op) {
	switch op {
	case faultfs.OpWrite:
		obsFaultWrites.Inc()
	case faultfs.OpSync:
		obsFaultSyncs.Inc()
	case faultfs.OpRename:
		obsFaultRenames.Inc()
	}
}

// Options tunes a Store.
type Options struct {
	// Sync is the WAL fsync discipline; default SyncAlways.
	Sync SyncMode
	// FS is the filesystem every WAL and snapshot operation goes
	// through; default faultfs.OS(). Tests and the chaos harness
	// install a faultfs.Injector here to make the disk misbehave.
	FS faultfs.FS

	// now overrides the clock for interval-sync tests.
	now syncClock
	// maxRecord overrides maxRecordBytes for size-limit tests.
	maxRecord int
}

// maxRecordBytes bounds one WAL record and a snapshot's whole state;
// larger declared lengths are treated as corruption.
const maxRecordBytes = 64 << 20

// syncInterval is the longest time between fsyncs under SyncInterval.
const syncInterval = 100 * time.Millisecond

func (o Options) withDefaults() Options {
	if o.maxRecord <= 0 {
		o.maxRecord = maxRecordBytes
	}
	if o.FS == nil {
		o.FS = faultfs.OS()
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// Recovery is what Open rebuilt from disk: the latest snapshot's opaque
// state (nil when none was ever taken), the intact records appended
// after it, and the forensic counters the status endpoint reports.
type Recovery struct {
	Snapshot    []byte
	SnapshotSeq uint64
	Records     []Record // seq > SnapshotSeq, dense and in order
	// TornBytes counts WAL bytes dropped because a crashed append left a
	// partial tail record; TornNote says what was wrong with it.
	TornBytes int64
	TornNote  string
}

// LastSeq returns the sequence of the newest committed record —
// SnapshotSeq when the log is empty.
func (r *Recovery) LastSeq() uint64 {
	if n := len(r.Records); n > 0 {
		return r.Records[n-1].Seq
	}
	return r.SnapshotSeq
}

// Status is the store's health report, served by GET /v1/store/status.
type Status struct {
	Dir          string   `json:"dir"`
	Sync         string   `json:"sync"`
	LastSeq      uint64   `json:"lastSeq"`
	SnapshotSeq  uint64   `json:"snapshotSeq"`
	WALBytes     int64    `json:"walBytes"`
	WALRecords   int64    `json:"walRecords"`         // records currently in the WAL (since last compaction)
	Appended     int64    `json:"appended"`           // records appended by this process
	Replayed     int      `json:"replayed"`           // records replayed at open
	TornBytes    int64    `json:"tornBytes"`          // torn tail dropped at open (0 = clean shutdown or lucky crash)
	TornNote     string   `json:"tornNote,omitempty"` // what was wrong with the torn tail
	Snapshots    int64    `json:"snapshots"`          // snapshots taken by this process
	SnapshotSeqs []uint64 `json:"snapshotSeqs,omitempty"`
	// Degraded reports a fail-stopped journal: a write or fsync failed,
	// the dirty handle was abandoned, and appends are rejected with
	// ErrDegraded until Reopen succeeds. Fault carries the cause.
	Degraded         bool   `json:"degraded,omitempty"`
	Fault            string `json:"fault,omitempty"`
	Reopens          int64  `json:"reopens,omitempty"`          // successful degraded-mode recoveries
	QuarantinedBytes int64  `json:"quarantinedBytes,omitempty"` // unacknowledged tail bytes moved aside by Reopen
}

// Store is the durable state engine. All methods are safe for
// concurrent use.
type Store struct {
	dir    string
	opts   Options
	tracer *obs.Tracer // see SetTracer

	// snapMu serializes snapshots: attempts share a temp file path and
	// must install in order. Lock order: snapMu → mu.
	snapMu sync.Mutex

	mu          sync.Mutex
	wal         faultfs.File // nil while degraded with the dirty handle already dropped
	walBytes    int64        // acknowledged good bytes; the file may hold a dirty tail beyond this while degraded
	walRecords  int64
	walFirst    uint64 // seq of the WAL's first record; lastSeq+1 while it is empty
	lastSeq     uint64
	snapshotSeq uint64
	lastSync    time.Time
	appended    int64
	replayed    int
	tornBytes   int64
	tornNote    string
	snapshots   int64
	closed      bool

	// Degraded-mode state (see degraded.go): failed is the sticky
	// fail-stop cause, quarantineFrom the acknowledged byte boundary
	// beyond which the WAL is untrusted.
	failed         error
	quarantineFrom int64
	quarantined    int64
	reopens        int64
	degradedUp     bool // this store currently counted in the store.degraded gauge
}

// Open mounts (creating if needed) the durable state directory and
// recovers its committed state: latest snapshot plus every intact WAL
// record after it. A torn tail record is truncated from the file before
// the append handle opens; interior corruption aborts with ErrCorrupt.
func Open(dir string, opts Options) (*Store, *Recovery, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	state, snapSeq, err := loadLatestSnapshot(opts.FS, dir, opts.maxRecord)
	if err != nil {
		return nil, nil, err
	}
	walPath := filepath.Join(dir, walName)
	// A crash between snapshot rename and WAL compaction can leave a
	// finished wal.log.tmp; the intact old wal.log wins (its extra
	// records are skipped by sequence), the temp is discarded.
	opts.FS.Remove(walPath + tmpSuffix)
	raw, err := opts.FS.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("store: reading WAL: %w", err)
	}
	scan, err := scanWAL(raw, snapSeq, opts.maxRecord)
	if err != nil {
		return nil, nil, err
	}
	if scan.torn > 0 {
		if err := opts.FS.Truncate(walPath, scan.goodEnd); err != nil {
			return nil, nil, fmt.Errorf("store: truncating torn tail: %w", err)
		}
		obsTorn.Inc()
	}

	rec := &Recovery{
		Snapshot:    state,
		SnapshotSeq: snapSeq,
		TornBytes:   scan.torn,
		TornNote:    scan.tornNote,
	}
	for _, r := range scan.records {
		if r.Seq > snapSeq {
			rec.Records = append(rec.Records, r)
		}
	}
	obsReplays.Add(int64(len(rec.Records)))

	wal, err := opts.FS.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: opening WAL: %w", err)
	}
	if err := syncDir(opts.FS, dir); err != nil {
		wal.Close()
		return nil, nil, fmt.Errorf("store: syncing %s: %w", dir, err)
	}
	s := &Store{
		dir:         dir,
		opts:        opts,
		wal:         wal,
		walBytes:    scan.goodEnd,
		walRecords:  int64(len(scan.records)),
		walFirst:    scan.first(rec.LastSeq()),
		lastSeq:     rec.LastSeq(),
		snapshotSeq: snapSeq,
		lastSync:    opts.now(),
		replayed:    len(rec.Records),
		tornBytes:   scan.torn,
		tornNote:    scan.tornNote,
	}
	return s, rec, nil
}

// Dir returns the state directory.
func (s *Store) Dir() string { return s.dir }

// SetTracer makes Append and SnapshotTo emit store.append and
// store.snapshot spans into t; nil turns them off. It is not
// synchronized: call it before the store is shared.
func (s *Store) SetTracer(t *obs.Tracer) { s.tracer = t }

// Append commits one typed record to the WAL and returns its sequence
// number. data is encoded to JSON once, straight into the record's
// frame (see recordFrame); under SyncAlways the record is on stable
// storage when Append returns. store.append_seconds times the whole
// call: lock wait, encode, write and fsync.
func (s *Store) Append(typ string, data any) (uint64, error) {
	start := time.Now()
	defer func() { obsAppendTime.ObserveDuration(time.Since(start)) }()
	sp := s.tracer.StartSpan("store.append")
	sp.SetAttr("type", typ)
	defer sp.End()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("store: append %s: store is closed", typ)
	}
	if s.failed != nil {
		return 0, fmt.Errorf("store: append %s: %w", typ, s.failed)
	}
	seq := s.lastSeq + 1
	frame, err := recordFrame(seq, typ, data)
	if err != nil {
		return 0, fmt.Errorf("store: encoding %s record: %w", typ, err)
	}
	if len(frame)-frameHeader > s.opts.maxRecord {
		return 0, fmt.Errorf("store: %s record of %d bytes exceeds the %d-byte limit", typ, len(frame)-frameHeader, s.opts.maxRecord)
	}
	// No store counter advances until the record is both written and
	// (per the sync discipline) synced: a failed append leaves the
	// acknowledged state exactly as it was, and the store fail-stops —
	// the partially-written tail is quarantined by Reopen, never
	// retried on the dirty handle.
	goodEnd := s.walBytes
	if _, err := s.wal.Write(frame); err != nil {
		countFaultOp(faultfs.OpWrite)
		return 0, fmt.Errorf("store: appending %s record: %w", typ, s.failStopLocked("write", err, goodEnd))
	}
	if err := s.maybeSync(); err != nil {
		countFaultOp(faultfs.OpSync)
		return 0, fmt.Errorf("store: syncing WAL after %s record: %w", typ, s.failStopLocked("fsync", err, goodEnd))
	}
	s.walBytes += int64(len(frame))
	s.walRecords++
	s.lastSeq = seq
	s.appended++
	obsAppends.Inc()
	sp.SetInt("seq", int64(seq))
	return seq, nil
}

// maybeSync applies the fsync discipline; the caller holds s.mu.
func (s *Store) maybeSync() error {
	switch s.opts.Sync {
	case SyncAlways:
		return s.fsync()
	case SyncInterval:
		if now := s.opts.now(); now.Sub(s.lastSync) >= syncInterval {
			return s.fsync()
		}
	}
	return nil
}

// fsync flushes the WAL and records the latency; the caller holds s.mu.
func (s *Store) fsync() error {
	start := time.Now()
	err := s.wal.Sync()
	obsFsync.ObserveDuration(time.Since(start))
	s.lastSync = s.opts.now()
	return err
}

// Snapshot compacts the log: state is the caller's opaque serialization
// of everything up to and including record coveredSeq. It is written
// atomically (temp → fsync → rename), then the WAL is rewritten keeping
// only records newer than coveredSeq — replay time stays bounded by the
// churn since the last snapshot, not the lifetime of the daemon.
//
// coveredSeq may trail the live sequence (mutations racing the
// snapshot): the uncovered suffix stays in the WAL and replays over the
// snapshot on recovery.
func (s *Store) Snapshot(state []byte, coveredSeq uint64) error {
	return s.SnapshotTo(coveredSeq, func(w io.Writer) error {
		_, err := w.Write(state)
		return err
	})
}

// SnapshotTo is Snapshot for a state the caller streams instead of
// holding it in one buffer, so the memory a snapshot needs does not
// grow with the state. encode writes the state once, without the
// store's lock, so appends continue meanwhile. The state streams into
// the snapshot's temp file in CRC32C frames of at most 64 KiB, each in
// one Write, and may not exceed the store's record limit. If encode
// fails, the state outgrows the limit or the disk fails, the snapshot
// fails like a fault on its temp file: the temp file is removed,
// nothing is installed, and the store keeps accepting appends.
// Snapshots of one store run one at a time.
func (s *Store) SnapshotTo(coveredSeq uint64, encode func(io.Writer) error) error {
	sp := s.tracer.StartSpan("store.snapshot")
	sp.SetInt("covered_seq", int64(coveredSeq))
	defer sp.End()

	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if err := s.prepareSnapshot(coveredSeq); err != nil {
		return err
	}
	// A failed snapshot write does NOT fail-stop: the WAL is intact and
	// fully synced, so the store keeps accepting appends; the attempt's
	// temp file is already cleaned up by writeTemp.
	path := filepath.Join(s.dir, snapName(coveredSeq))
	var fw *frameWriter
	fill := func(f faultfs.File) (faultfs.Op, error) {
		fw = &frameWriter{w: f, buf: make([]byte, frameHeader, snapFrameSize), limit: int64(s.opts.maxRecord)}
		if err := encode(fw); err != nil && fw.err == nil {
			return "", fmt.Errorf("encoding snapshot: %w", err)
		}
		if fw.err == nil {
			fw.flush() // the last frame, the only one of an empty state
		}
		return fw.op, fw.err
	}
	if op, err := writeTemp(s.opts.FS, path, fill); err != nil {
		countFaultOp(op)
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	sp.SetInt("bytes", fw.n)

	s.mu.Lock()
	defer s.mu.Unlock()
	// The store may have closed or fail-stopped while the state streamed
	// out; compacting a fail-stopped WAL could keep its unacknowledged
	// tail, so the finished snapshot is dropped instead.
	if err := s.snapshotAllowedLocked(); err != nil {
		s.opts.FS.Remove(path + tmpSuffix)
		return err
	}
	if op, err := publish(s.opts.FS, path); err != nil {
		countFaultOp(op)
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	s.snapshotSeq = coveredSeq
	s.snapshots++
	obsSnapshots.Inc()

	if err := s.compactLocked(coveredSeq); err != nil {
		// The snapshot itself is durable; a failed compaction only means
		// replay does redundant (skipped) work next open.
		return fmt.Errorf("store: compacting WAL: %w", err)
	}
	pruneSnapshots(s.opts.FS, s.dir, coveredSeq)
	sp.SetInt("wal_bytes", s.walBytes)
	return nil
}

// snapshotAllowedLocked rejects snapshots of a closed or fail-stopped
// store. The caller holds s.mu.
func (s *Store) snapshotAllowedLocked() error {
	if s.closed {
		return fmt.Errorf("store: snapshot: store is closed")
	}
	if s.failed != nil {
		return fmt.Errorf("store: snapshot: %w", s.failed)
	}
	return nil
}

// prepareSnapshot checks that a snapshot covering coveredSeq may be
// taken and makes every record it covers durable first.
func (s *Store) prepareSnapshot(coveredSeq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.snapshotAllowedLocked(); err != nil {
		return err
	}
	if coveredSeq > s.lastSeq {
		return fmt.Errorf("store: snapshot claims seq %d but the log only reaches %d", coveredSeq, s.lastSeq)
	}
	if coveredSeq < s.snapshotSeq {
		return fmt.Errorf("store: snapshot would regress from seq %d to %d", s.snapshotSeq, coveredSeq)
	}
	// The snapshot must not outrun the durable log: if the WAL has
	// unsynced records at or below coveredSeq, a crash after the rename
	// but before writeback would lose them from both places. A failed
	// pre-snapshot fsync therefore fail-stops the journal: acknowledged
	// records are in doubt on the dirty handle.
	if s.opts.Sync != SyncAlways {
		if err := s.fsync(); err != nil {
			countFaultOp(faultfs.OpSync)
			return fmt.Errorf("store: syncing WAL before snapshot: %w", s.failStopLocked("fsync", err, s.walBytes))
		}
	}
	return nil
}

// compactLocked rewrites the WAL keeping only records with seq >
// coveredSeq, atomically swapping it into place. Sequence numbers are
// dense, so the log holds one frame per seq from walFirst to lastSeq and
// the kept records are its last frames. Compaction steps over every
// frame, checking its CRC but decoding none, and copies the kept ones
// verbatim. Caller holds s.mu.
func (s *Store) compactLocked(coveredSeq uint64) error {
	walPath := filepath.Join(s.dir, walName)
	raw, err := s.opts.FS.ReadFile(walPath)
	if err != nil {
		return err
	}
	var off, from int64
	for seq := s.walFirst; seq <= s.lastSeq; seq++ {
		_, end, err := frameAt(raw, off, s.opts.maxRecord)
		if err != nil {
			return fmt.Errorf("%w: record %d at offset %d: %v", ErrCorrupt, seq, off, err)
		}
		if seq <= coveredSeq {
			from = end
		}
		off = end
	}
	keep := raw[from:off]
	if err := s.wal.Close(); err != nil {
		return err
	}
	if op, err := writeFileAtomic(s.opts.FS, walPath, keep); err != nil {
		countFaultOp(op)
		// The old wal.log is still in place (the rename never happened);
		// reopen it so the store stays writable. If even the reopen
		// fails the store fail-stops — degraded, recoverable by Reopen —
		// rather than dying outright.
		if wal, rerr := s.opts.FS.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644); rerr == nil {
			s.wal = wal
		} else {
			s.wal = nil
			s.failStopLocked("compact-reopen", rerr, s.walBytes)
		}
		return err
	}
	wal, err := s.opts.FS.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.wal = nil
		s.failStopLocked("compact-reopen", err, int64(len(keep)))
		return err
	}
	s.wal = wal
	s.walBytes = int64(len(keep))
	s.walRecords = int64(s.lastSeq - coveredSeq)
	s.walFirst = coveredSeq + 1
	return nil
}

// LastSeq returns the newest committed sequence number.
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

// SnapshotSeq returns the sequence covered by the latest snapshot.
func (s *Store) SnapshotSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotSeq
}

// Status reports the store's health.
func (s *Store) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		Dir:              s.dir,
		Sync:             s.opts.Sync.String(),
		LastSeq:          s.lastSeq,
		SnapshotSeq:      s.snapshotSeq,
		WALBytes:         s.walBytes,
		WALRecords:       s.walRecords,
		Appended:         s.appended,
		Replayed:         s.replayed,
		TornBytes:        s.tornBytes,
		TornNote:         s.tornNote,
		Snapshots:        s.snapshots,
		SnapshotSeqs:     snapshotSeqs(s.opts.FS, s.dir),
		Reopens:          s.reopens,
		QuarantinedBytes: s.quarantined,
	}
	if s.failed != nil {
		st.Degraded = true
		st.Fault = s.failed.Error()
	}
	return st
}

// Close closes the WAL, fsyncing first unless the store is degraded —
// a fail-stopped journal's dirty handle is never fsynced (the write
// path already failed; retrying fsync on it could ack lies). The store
// rejects further appends either way.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.degradedUp {
		obsDegraded.Add(-1)
		s.degradedUp = false
	}
	if s.wal == nil {
		return nil
	}
	if s.failed != nil {
		return s.wal.Close()
	}
	if err := s.fsync(); err != nil {
		s.wal.Close()
		return err
	}
	return s.wal.Close()
}
