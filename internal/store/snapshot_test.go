package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
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

// TestSnapshotToWritesTheSnapshotFrame streams states below, at and far
// above the write buffer and expects the file Snapshot always wrote:
// one frame, byte for byte. A frame that fits the buffer reaches the
// disk in one Write, as an unbuffered snapshot did.
func TestSnapshotToWritesTheSnapshotFrame(t *testing.T) {
	for _, size := range []int{0, 17, snapBufSize - frameHeader, 3*snapBufSize + 7} {
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
			if passes != 2 {
				t.Fatalf("encoder ran %d times, want 2", passes)
			}
			// One more write is the WAL compaction's.
			if got := in.Ops(faultfs.OpWrite) - writes; size+frameHeader <= snapBufSize && got != 2 {
				t.Fatalf("snapshot and compaction took %d writes, want 2", got)
			}
			s.Close()

			raw, err := os.ReadFile(filepath.Join(dir, snapName(2)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, encodeFrame(nil, state)) {
				t.Fatalf("snapshot file (%d bytes) is not the frame of the state (%d bytes)", len(raw), len(state)+frameHeader)
			}
			s2, rec := openT(t, dir, Options{})
			defer s2.Close()
			if rec.SnapshotSeq != 2 || !bytes.Equal(rec.Snapshot, state) {
				t.Fatalf("recovered snapshot seq %d, %d bytes", rec.SnapshotSeq, len(rec.Snapshot))
			}
		})
	}
}

// TestSnapshotToEncodeErrorKeepsPreviousSnapshot fails the encoder on
// its sizing pass and, after it streamed three buffers, on its write
// pass. Either way nothing is installed and the store stays writable.
func TestSnapshotToEncodeErrorKeepsPreviousSnapshot(t *testing.T) {
	errEncode := errors.New("encoder gave up")
	for _, failPass := range []int{1, 2} {
		t.Run(fmt.Sprintf("pass%d", failPass), func(t *testing.T) {
			dir := t.TempDir()
			s, _ := openT(t, dir, Options{Sync: SyncAlways})
			appendN(t, s, 2)
			if err := s.Snapshot([]byte("covered-2"), 2); err != nil {
				t.Fatal(err)
			}
			appendN(t, s, 2)

			pass := 0
			err := s.SnapshotTo(4, func(w io.Writer) error {
				pass++
				if _, err := w.Write(testState(3 * snapBufSize)); err != nil {
					return err
				}
				if pass == failPass {
					return errEncode
				}
				return nil
			})
			if !errors.Is(err, errEncode) {
				t.Fatalf("SnapshotTo = %v, want the encoder's error", err)
			}
			if pass != failPass {
				t.Fatalf("encoder ran %d times after failing on pass %d", pass, failPass)
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

// TestSnapshotToRejectsNondeterministicEncoder: a write pass that
// differs from the sizing pass, in length or only in content, would
// leave a frame whose header lies about its payload.
func TestSnapshotToRejectsNondeterministicEncoder(t *testing.T) {
	for name, passes := range map[string][2]string{
		"length":  {"state-a", "state-ab"},
		"content": {"state-a", "state-b"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := openT(t, dir, Options{Sync: SyncAlways})
			defer s.Close()
			appendN(t, s, 3)
			pass := 0
			err := s.SnapshotTo(3, func(w io.Writer) error {
				_, err := io.WriteString(w, passes[pass])
				pass++
				return err
			})
			if err == nil || !strings.Contains(err.Error(), "not deterministic") {
				t.Fatalf("SnapshotTo = %v, want a nondeterminism error", err)
			}
			if s.Failed() != nil {
				t.Fatalf("rejected snapshot fail-stopped the store: %v", s.Failed())
			}
			assertNoTempFiles(t, dir)
			if st := s.Status(); st.SnapshotSeq != 0 || len(st.SnapshotSeqs) != 0 {
				t.Fatalf("rejected snapshot was installed: %+v", st)
			}
		})
	}
}

// TestSnapshotToLetsAppendsThrough: the write pass streams without the
// store's lock, so an append issued mid-stream completes before the
// snapshot does and survives the compaction that follows.
func TestSnapshotToLetsAppendsThrough(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{Sync: SyncAlways})
	appendN(t, s, 3)
	pass := 0
	err := s.SnapshotTo(3, func(w io.Writer) error {
		pass++
		if pass == 2 {
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
				return errors.New("append blocked behind the snapshot's write pass")
			}
		}
		_, err := io.WriteString(w, "covered-3")
		return err
	})
	if err != nil {
		t.Fatal(err)
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
	s, _ := openT(t, t.TempDir(), Options{Tracer: obs.NewTracer(rec)})
	defer s.Close()
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

// openCounter counts the files a store opens.
type openCounter struct {
	faultfs.FS
	opens int
}

func (c *openCounter) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	c.opens++
	return c.FS.OpenFile(name, flag, perm)
}

// TestSnapshotToOverLimitOpensNoFile: an over-limit state is refused by
// the sizing pass, before a temp file exists or the write pass runs.
func TestSnapshotToOverLimitOpensNoFile(t *testing.T) {
	fsys := &openCounter{FS: faultfs.OS()}
	s, _ := openT(t, t.TempDir(), Options{Sync: SyncAlways, MaxRecordBytes: 1024, FS: fsys})
	defer s.Close()
	appendN(t, s, 1)
	opens, passes := fsys.opens, 0
	err := s.SnapshotTo(1, chunked(testState(1025), &passes))
	if err == nil || !strings.Contains(err.Error(), "exceeds the 1024-byte limit") {
		t.Fatalf("SnapshotTo = %v, want the size limit error", err)
	}
	if passes != 1 || fsys.opens != opens {
		t.Fatalf("over-limit snapshot ran %d passes and opened %d files, want 1 and 0", passes, fsys.opens-opens)
	}
	if s.Failed() != nil {
		t.Fatalf("over-limit snapshot fail-stopped the store: %v", s.Failed())
	}
}

// TestSnapshotToStreamFaultCleansUp tears or refuses the second of the
// four writes a 192 KiB snapshot streams. The temp file goes, the WAL
// stays authoritative, and a retry once the disk heals succeeds.
func TestSnapshotToStreamFaultCleansUp(t *testing.T) {
	state := testState(3 * snapBufSize)
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
