package chaos

import (
	"fmt"
	"os"
	"path/filepath"

	"wsdeploy/internal/manager"
	"wsdeploy/internal/network"
	"wsdeploy/internal/store"
)

// Crash-injection harness for the durable fleet. It drives a scripted
// sequence of fleet mutations through a journaled store while
// recording, after every record, the on-disk image (WAL bytes plus
// snapshot files) and the fleet's reference snapshot — the reduction a
// recovery is required to reproduce. The sweep then simulates a
// kill -9 at every byte offset of every appended record: it materializes
// the truncated disk image, reopens the store, replays the log, and
// asserts the recovered fleet is byte-identical to the reference
// reduction of the longest wholly-written record prefix. A crash may
// cost the record being written — never a committed one, and never
// silently diverge.
//
// The offset-sweep machinery itself is the generic RecordSweep
// (recordsweep.go); CrashSweep binds it to fleet records. Other durable
// subsystems (the reconcile spec journal) bind their own targets.

// CrashStep is one scripted fleet mutation (exactly one WAL record) or
// a composite snapshot point.
type CrashStep struct {
	// Name labels the step in failure reports.
	Name string
	// Mutate applies one journaled mutation to the fleet. nil steps
	// with Snapshot set only compact.
	Mutate func(*manager.Locked) error
	// Snapshot folds the current fleet state into a store snapshot and
	// compacts the WAL before (optionally) mutating. Crash windows
	// inside the snapshot rename/compact sequence are covered by the
	// store's own tests; the sweep verifies recovery across the
	// compacted layout.
	Snapshot bool
}

// CrashReport summarizes one sweep.
type CrashReport struct {
	Steps   int // script steps executed
	Offsets int // truncation points swept (every byte of every record)
	Torn    int // offsets that required truncating a torn tail
	Clean   int // offsets that fell exactly on a record boundary
}

// crashImage is the disk + reference state after one WAL record.
type crashImage struct {
	name      string
	wal       []byte            // full wal.log content
	snaps     map[string][]byte // snap-*.bin files
	ref       []byte            // reference reduction; nil before genesis
	compacted bool              // snapshot step: WAL was rewritten, not appended to
}

// readImage copies the store directory's durable files.
func readImage(dir, name string, ref []byte) (crashImage, error) {
	img := crashImage{name: name, snaps: map[string][]byte{}, ref: ref}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return img, err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return img, err
		}
		if e.Name() == "wal.log" {
			img.wal = data
		} else {
			img.snaps[e.Name()] = data
		}
	}
	return img, nil
}

// materialize writes a crash image (with the WAL cut at offset) into a
// fresh directory.
func (img crashImage) materialize(dir string, offset int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, data := range img.snaps {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, "wal.log"), img.wal[:offset], 0o644)
}

// fleetBytes reduces a recovered fleet to comparable bytes; nil fleet
// (nothing committed yet) reduces to nil.
func fleetBytes(m *manager.Manager) ([]byte, error) {
	if m == nil {
		return nil, nil
	}
	return m.Snapshot()
}

// CrashSweep records a scripted fleet-mutation history and then
// verifies crash recovery at every byte offset. scratch must be a
// writable empty directory (a test's TempDir); the harness fills it
// with one recording store and one short-lived replay store per offset.
func CrashSweep(net *network.Network, steps []CrashStep, scratch string) (*CrashReport, error) {
	var fleet *manager.Locked
	tgt := SweepTarget{
		Init: func(st *store.Store) error {
			fleet = manager.NewLocked(net)
			genesis, err := manager.CreateRecord(fleet)
			if err != nil {
				return err
			}
			if _, err := st.Append(manager.RecFleetCreate, genesis); err != nil {
				return err
			}
			fleet.AttachJournal(st)
			return nil
		},
		Reference: func() ([]byte, error) { return fleet.Snapshot() },
		Recover: func(rec *store.Recovery) ([]byte, error) {
			m, err := manager.RecoverFleet(rec)
			if err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
			return fleetBytes(m)
		},
		Snapshot: func(st *store.Store) error {
			ref, err := fleet.Snapshot()
			if err != nil {
				return err
			}
			return st.Snapshot(ref, st.LastSeq())
		},
	}
	sweepSteps := make([]SweepStep, len(steps))
	for i, cs := range steps {
		cs := cs
		sweepSteps[i] = SweepStep{Name: cs.Name, Compact: cs.Snapshot}
		if cs.Mutate != nil {
			sweepSteps[i].Apply = func() error { return cs.Mutate(fleet) }
		}
	}
	return RecordSweep(scratch, sweepSteps, tgt)
}
