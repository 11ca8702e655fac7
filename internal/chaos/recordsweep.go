package chaos

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"wsdeploy/internal/store"
)

// Crash-injection harness: a durable subsystem binds it to prove its
// own recovery. The target supplies three reductions — live reference
// state, recovered state, and the empty pre-genesis state — and a
// script of one-record steps. The harness records the disk image (WAL
// bytes plus snapshot files) after every record, then simulates a
// kill -9 at every byte offset of every record and asserts the
// recovered reduction matches the reference of the longest
// wholly-written prefix: a crash may cost the record being written,
// never a committed one. The daemon's tests bind it to a tenant's
// composite restore (internal/httpapi), the reconcile tests to the
// spec journal.

// SweepStep is one scripted mutation. Apply must append exactly one WAL
// record (the harness captures one disk image per step, so a
// multi-record step would make intermediate truncation points
// unverifiable). Compact, when set, folds a snapshot/compaction in
// before Apply runs; nil Apply with Compact only compacts.
type SweepStep struct {
	Name    string
	Apply   func() error
	Compact bool
}

// SweepTarget binds the harness to one durable subsystem.
type SweepTarget struct {
	// Init sets up live state over the freshly opened recording store —
	// attaching journals, writing the genesis record. At most one record
	// may be appended.
	Init func(st *store.Store) error
	// Reference reduces the live state to comparable bytes; called after
	// Init and after every step.
	Reference func() ([]byte, error)
	// Recover reduces a reopened store and its recovery to the same byte
	// form. It is also where the target asserts its own recovery
	// invariants (a violated invariant returns an error and fails the
	// sweep at the offending offset). The harness closes st afterwards.
	Recover func(st *store.Store, rec *store.Recovery) ([]byte, error)
	// Snapshot folds the live state into a store snapshot (compacting
	// the WAL). Required only when a step sets Compact.
	Snapshot func(st *store.Store) error
	// Empty is the expected reduction of a store with no committed
	// records (the pre-genesis crash window).
	Empty []byte
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
	ref       []byte            // reference reduction
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

// RecordSweep runs the scripted history against a journaled store in
// scratch/record and verifies recovery at every byte offset of every
// record. scratch must be a writable empty directory (a test's
// TempDir); the harness fills it with the recording store and one
// short-lived replay store per offset.
func RecordSweep(scratch string, steps []SweepStep, tgt SweepTarget) (*CrashReport, error) {
	recordDir := filepath.Join(scratch, "record")
	st, _, err := store.Open(recordDir, store.Options{Sync: store.SyncNone})
	if err != nil {
		return nil, err
	}
	defer st.Close()

	if err := tgt.Init(st); err != nil {
		return nil, err
	}

	images := []crashImage{{name: "pre-genesis", snaps: map[string][]byte{}, ref: tgt.Empty}}
	capture := func(name string, compacted bool) error {
		ref, err := tgt.Reference()
		if err != nil {
			return err
		}
		img, err := readImage(recordDir, name, ref)
		if err != nil {
			return err
		}
		img.compacted = compacted
		images = append(images, img)
		return nil
	}
	if err := capture("genesis", false); err != nil {
		return nil, err
	}
	for _, step := range steps {
		if step.Compact {
			if tgt.Snapshot == nil {
				return nil, fmt.Errorf("chaos: step %s compacts but the target has no Snapshot", step.Name)
			}
			if err := tgt.Snapshot(st); err != nil {
				return nil, fmt.Errorf("step %s: snapshot: %w", step.Name, err)
			}
			if err := capture(step.Name+" (compacted)", true); err != nil {
				return nil, err
			}
		}
		if step.Apply != nil {
			if err := step.Apply(); err != nil {
				return nil, fmt.Errorf("step %s: %w", step.Name, err)
			}
			if err := capture(step.Name, false); err != nil {
				return nil, err
			}
		}
	}

	rep := &CrashReport{Steps: len(steps)}
	replayDir := filepath.Join(scratch, "replay")
	for i := 1; i < len(images); i++ {
		prev, cur := images[i-1], images[i]
		if cur.compacted {
			// Compaction rewrote the WAL, so per-byte truncation against
			// the previous image is meaningless; verify the full compacted
			// image recovers (the rename windows are the store's own tests).
			if err := verifySweep(cur, len(cur.wal), cur.ref, 0, replayDir, tgt); err != nil {
				return nil, fmt.Errorf("step %s: %w", cur.name, err)
			}
			rep.Offsets++
			rep.Clean++
			continue
		}
		// Kill -9 at every byte the new record occupies, boundaries
		// included: offset len(prev.wal) lost the whole record, offsets
		// in between tore it, len(cur.wal) committed it.
		for off := len(prev.wal); off <= len(cur.wal); off++ {
			want := prev.ref
			wantTorn := int64(off - len(prev.wal))
			if off == len(cur.wal) {
				want, wantTorn = cur.ref, 0
			}
			if err := verifySweep(cur, off, want, wantTorn, replayDir, tgt); err != nil {
				return nil, fmt.Errorf("step %s: %w", cur.name, err)
			}
			rep.Offsets++
			if wantTorn > 0 {
				rep.Torn++
			} else {
				rep.Clean++
			}
		}
	}
	return rep, nil
}

// verifySweep materializes one truncated image, recovers through the
// target, and compares against the expected reduction.
func verifySweep(img crashImage, offset int, want []byte, wantTorn int64, dir string, tgt SweepTarget) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := img.materialize(dir, offset); err != nil {
		return err
	}
	st, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		return fmt.Errorf("kill at offset %d: reopen: %w", offset, err)
	}
	defer st.Close()
	if rec.TornBytes != wantTorn {
		return fmt.Errorf("kill at offset %d: truncated %d torn bytes, want %d", offset, rec.TornBytes, wantTorn)
	}
	got, err := tgt.Recover(st, rec)
	if err != nil {
		return fmt.Errorf("kill at offset %d: %w", offset, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("kill at offset %d: recovered state diverges from reference reduction\n got: %s\nwant: %s", offset, got, want)
	}
	return nil
}
