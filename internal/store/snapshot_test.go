package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wsdeploy/internal/faultfs"
	"wsdeploy/internal/obs"
)

// testState is n deterministic bytes of snapshot state.
func testState(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + i%23)
	}
	return b
}

// chunked returns an encoder that streams state in 1000-byte writes and
// counts how often it runs.
func chunked(state []byte, passes *int) func(io.Writer) error {
	return func(w io.Writer) error {
		*passes++
		for off := 0; off < len(state); off += 1000 {
			if _, err := w.Write(state[off:min(off+1000, len(state))]); err != nil {
				return err
			}
		}
		return nil
	}
}

// framesOf is the snapshot file of state: its bytes cut into frames of
// at most snapFrameSize, and one empty frame for an empty state.
func framesOf(state []byte) []byte {
	var out []byte
	for off := 0; off == 0 || off < len(state); off += snapFrameSize - frameHeader {
		out = encodeFrame(out, state[off:min(off+snapFrameSize-frameHeader, len(state))])
	}
	return out
}

// TestSnapshotToWritesTheSnapshotFrame streams states below, at, just
// past and far above one frame's payload through an encoder that runs
// once. Up to 65,528 bytes the file is the one frame Snapshot always
// wrote, byte for byte, reaching the disk in one Write; a larger state
// is several frames, one Write each, whose payloads are the state.
func TestSnapshotToWritesTheSnapshotFrame(t *testing.T) {
	const payload = snapFrameSize - frameHeader
	for _, size := range []int{0, 17, payload, payload + 1, 3*snapFrameSize + 7} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			dir := t.TempDir()
			in := faultfs.NewInjector(nil)
			s, _ := openT(t, dir, Options{Sync: SyncAlways, FS: in})
			appendN(t, s, 2)
			state := testState(size)
			writes := in.Ops(faultfs.OpWrite)
			passes := 0
			if err := s.SnapshotTo(2, chunked(state, &passes)); err != nil {
				t.Fatalf("SnapshotTo: %v", err)
			}
			if passes != 1 {
				t.Fatalf("encoder ran %d times, want 1", passes)
			}
			frames := max(1, (size+payload-1)/payload)
			// One more write is the WAL compaction's.
			if got := in.Ops(faultfs.OpWrite) - writes; got != frames+1 {
				t.Fatalf("snapshot and compaction took %d writes, want %d frames + 1", got, frames)
			}
			s.Close()

			raw, err := os.ReadFile(filepath.Join(dir, snapName(2)))
			if err != nil {
				t.Fatal(err)
			}
			if want := framesOf(state); !bytes.Equal(raw, want) {
				t.Fatalf("snapshot file (%d bytes) is not the %d frames of the state (%d bytes)", len(raw), frames, len(want))
			}
			s2, rec := openT(t, dir, Options{})
			defer s2.Close()
			if rec.SnapshotSeq != 2 || !bytes.Equal(rec.Snapshot, state) {
				t.Fatalf("recovered snapshot seq %d, %d bytes", rec.SnapshotSeq, len(rec.Snapshot))
			}
		})
	}
}

// TestSnapshotToEncodeErrorKeepsPreviousSnapshot fails the encoder
// before it writes anything and after it streamed three frames. Either
// way nothing is installed and the store stays writable.
func TestSnapshotToEncodeErrorKeepsPreviousSnapshot(t *testing.T) {
	errEncode := errors.New("encoder gave up")
	for name, written := range map[string]int{"before-writing": 0, "after-three-frames": 3 * snapFrameSize} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := openT(t, dir, Options{Sync: SyncAlways})
			appendN(t, s, 2)
			if err := s.Snapshot([]byte("covered-2"), 2); err != nil {
				t.Fatal(err)
			}
			appendN(t, s, 2)

			passes := 0
			err := s.SnapshotTo(4, func(w io.Writer) error {
				passes++
				if _, err := w.Write(testState(written)); err != nil {
					return err
				}
				return errEncode
			})
			if !errors.Is(err, errEncode) || passes != 1 {
				t.Fatalf("SnapshotTo = %v after %d passes, want the encoder's error after 1", err, passes)
			}
			if s.Failed() != nil {
				t.Fatalf("encoder failure fail-stopped the store: %v", s.Failed())
			}
			assertNoTempFiles(t, dir)
			if _, err := s.Append("t", faultPayload{N: 5}); err != nil {
				t.Fatalf("append after failed snapshot: %v", err)
			}
			s.Close()

			s2, rec := openT(t, dir, Options{Sync: SyncAlways})
			defer s2.Close()
			if rec.SnapshotSeq != 2 || string(rec.Snapshot) != "covered-2" || rec.LastSeq() != 5 {
				t.Fatalf("recovered snapshot seq %d %q, last seq %d; want the seq-2 snapshot and seq 5",
					rec.SnapshotSeq, rec.Snapshot, rec.LastSeq())
			}
		})
	}
}

// TestSnapshotToLetsAppendsThrough: the state streams without the
// store's lock, so an append issued during the encoder's only pass
// completes before the snapshot does and survives the compaction that
// follows.
func TestSnapshotToLetsAppendsThrough(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{Sync: SyncAlways})
	appendN(t, s, 3)
	passes := 0
	err := s.SnapshotTo(3, func(w io.Writer) error {
		passes++
		if _, err := io.WriteString(w, "covered-"); err != nil {
			return err
		}
		done := make(chan error, 1)
		go func() {
			_, err := s.Append("t", faultPayload{N: 3})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				return err
			}
		case <-time.After(5 * time.Second):
			return errors.New("append blocked behind the streaming snapshot")
		}
		_, err := io.WriteString(w, "3")
		return err
	})
	if err != nil || passes != 1 {
		t.Fatalf("SnapshotTo = %v after %d passes, want success after 1", err, passes)
	}
	s.Close()
	s2, rec := openT(t, dir, Options{Sync: SyncAlways})
	defer s2.Close()
	if rec.SnapshotSeq != 3 || string(rec.Snapshot) != "covered-3" || rec.LastSeq() != 4 {
		t.Fatalf("recovered snapshot seq %d %q, last seq %d; want 3, covered-3, 4", rec.SnapshotSeq, rec.Snapshot, rec.LastSeq())
	}
}

// TestSnapshotToUnderConcurrentAppends races repeated snapshots against
// appenders (run it with -race): every acknowledged record survives.
func TestSnapshotToUnderConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{Sync: SyncNone})
	const writers, each = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := s.Append("t", faultPayload{N: i}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		covered := s.LastSeq()
		if err := s.Snapshot([]byte(fmt.Sprint(covered)), covered); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
	wg.Wait()
	s.Close()
	s2, rec := openT(t, dir, Options{})
	defer s2.Close()
	if rec.LastSeq() != writers*each || string(rec.Snapshot) != fmt.Sprint(rec.SnapshotSeq) {
		t.Fatalf("recovered last seq %d, snapshot %q at seq %d; want %d records", rec.LastSeq(), rec.Snapshot, rec.SnapshotSeq, writers*each)
	}
}

// TestAppendAndSnapshotObservability: every append lands in
// store.append_seconds, and the store.snapshot span carries the state's
// size in bytes.
func TestAppendAndSnapshotObservability(t *testing.T) {
	rec := obs.NewFlightRecorder(64)
	s, _ := openT(t, t.TempDir(), Options{})
	defer s.Close()
	s.SetTracer(obs.NewTracer(rec))
	before := obsAppendTime.Count()
	appendN(t, s, 3)
	if got := obsAppendTime.Count() - before; got != 3 {
		t.Fatalf("store.append_seconds counted %d appends, want 3", got)
	}
	if err := s.Snapshot(testState(100), 3); err != nil {
		t.Fatal(err)
	}
	for _, sp := range rec.Snapshot() {
		if sp.Name != "store.snapshot" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "bytes" && a.Val == "100" {
				return
			}
		}
		t.Fatalf("store.snapshot span attrs %v lack bytes=100", sp.Attrs)
	}
	t.Fatal("no store.snapshot span recorded")
}

// TestSnapshotToOverLimitRemovesTempFile: a state that outgrows the
// record limit is refused while it streams, on the write that crosses
// the limit. The temp file goes, nothing is installed, the store stays
// writable, and a state exactly at the limit is accepted.
func TestSnapshotToOverLimitRemovesTempFile(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{Sync: SyncAlways, maxRecord: 1024})
	defer s.Close()
	appendN(t, s, 1)
	passes := 0
	err := s.SnapshotTo(1, chunked(testState(1025), &passes))
	if err == nil || !strings.Contains(err.Error(), "exceeds the 1024-byte limit") {
		t.Fatalf("SnapshotTo = %v, want the size limit error", err)
	}
	if passes != 1 {
		t.Fatalf("over-limit snapshot ran the encoder %d times, want 1", passes)
	}
	if s.Failed() != nil {
		t.Fatalf("over-limit snapshot fail-stopped the store: %v", s.Failed())
	}
	assertNoTempFiles(t, dir)
	if st := s.Status(); st.SnapshotSeq != 0 || len(st.SnapshotSeqs) != 0 {
		t.Fatalf("over-limit snapshot was installed: %+v", st)
	}
	appendN(t, s, 1)
	if err := s.SnapshotTo(2, chunked(testState(1024), &passes)); err != nil {
		t.Fatalf("snapshot at the limit: %v", err)
	}
}

// TestSnapshotToStreamFaultCleansUp tears or refuses the second of the
// four writes a 192 KiB snapshot streams. The temp file goes, the WAL
// stays authoritative, and a retry once the disk heals succeeds.
func TestSnapshotToStreamFaultCleansUp(t *testing.T) {
	state := testState(3 * snapFrameSize)
	for _, kind := range []faultfs.Kind{faultfs.ShortWrite, faultfs.NoSpace} {
		t.Run(string(kind), func(t *testing.T) {
			dir := t.TempDir()
			in := faultfs.NewInjector(nil)
			s, _ := openT(t, dir, Options{Sync: SyncAlways, FS: in})
			defer s.Close()
			faultAppendN(s, 3)

			in.Arm(faultfs.Fault{Kind: kind, At: in.Ops(faultfs.OpWrite) + 1})
			passes := 0
			if err := s.SnapshotTo(3, chunked(state, &passes)); err == nil {
				t.Fatal("snapshot with a faulted write succeeded")
			}
			if in.Fired() != 1 {
				t.Fatalf("fault fired %d times, want 1", in.Fired())
			}
			if s.Failed() != nil {
				t.Fatalf("snapshot write fault fail-stopped the store: %v", s.Failed())
			}
			assertNoTempFiles(t, dir)
			if _, err := s.Append("t", faultPayload{N: 3}); err != nil {
				t.Fatalf("append after snapshot fault: %v", err)
			}
			if err := s.SnapshotTo(4, chunked(state, &passes)); err != nil {
				t.Fatalf("retried snapshot: %v", err)
			}
			s.Close()

			s2, rec := openT(t, dir, Options{Sync: SyncAlways})
			defer s2.Close()
			if rec.SnapshotSeq != 4 || !bytes.Equal(rec.Snapshot, state) || len(rec.Records) != 0 {
				t.Fatalf("recovered snapshot seq %d (%d bytes) + %d records", rec.SnapshotSeq, len(rec.Snapshot), len(rec.Records))
			}
		})
	}
}
