package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"wsdeploy/internal/faultfs"
)

// openT opens a store in dir, failing the test on error.
func openT(t *testing.T, dir string, opts Options) (*Store, *Recovery) {
	t.Helper()
	s, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, rec
}

// appendN appends n trivial records and returns the last sequence.
func appendN(t *testing.T, s *Store, n int) uint64 {
	t.Helper()
	var last uint64
	for i := 0; i < n; i++ {
		seq, err := s.Append("test.op", map[string]int{"i": i})
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		last = seq
	}
	return last
}

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	s, rec := openT(t, dir, Options{})
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
	if last := appendN(t, s, 5); last != 5 {
		t.Fatalf("lastSeq = %d", last)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec2 := openT(t, dir, Options{})
	defer s2.Close()
	if len(rec2.Records) != 5 || rec2.TornBytes != 0 {
		t.Fatalf("recovered %d records, torn %d", len(rec2.Records), rec2.TornBytes)
	}
	for i, r := range rec2.Records {
		if r.Seq != uint64(i+1) || r.Type != "test.op" {
			t.Fatalf("record %d: %+v", i, r)
		}
		var data map[string]int
		if err := json.Unmarshal(r.Data, &data); err != nil || data["i"] != i {
			t.Fatalf("record %d payload: %s (%v)", i, r.Data, err)
		}
	}
	// Sequence numbering continues across the restart.
	if seq, err := s2.Append("test.op", nil); err != nil || seq != 6 {
		t.Fatalf("post-restart append: seq %d, %v", seq, err)
	}
}

func TestCloseRejectsAppend(t *testing.T) {
	s, _ := openT(t, t.TempDir(), Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, err := s.Append("x", nil); err == nil {
		t.Fatal("append after close succeeded")
	}
}

// TestTornTailTruncated cuts the WAL at every byte offset and asserts
// recovery keeps exactly the complete prefix of records, truncating the
// torn remainder on disk.
func TestTornTailTruncated(t *testing.T) {
	master := t.TempDir()
	s, _ := openT(t, master, Options{})
	appendN(t, s, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(master, walName))
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries, for asserting how many records survive each cut.
	scan, err := scanWAL(raw, 0, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	off := int64(0)
	for range scan.records {
		_, end, err := frameAt(raw, off, 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, end)
		off = end
	}

	for cut := 0; cut <= len(raw); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, rec := openT(t, dir, Options{})
		wantRecords := 0
		var wantEnd int64
		for i, e := range ends {
			if int64(cut) >= e {
				wantRecords, wantEnd = i+1, e
			}
		}
		if len(rec.Records) != wantRecords {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(rec.Records), wantRecords)
		}
		if wantTorn := int64(cut) - wantEnd; rec.TornBytes != wantTorn {
			t.Fatalf("cut %d: torn %d, want %d", cut, rec.TornBytes, wantTorn)
		}
		// The torn bytes are gone from disk: a second open is clean.
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		s3, rec3 := openT(t, dir, Options{})
		if rec3.TornBytes != 0 || len(rec3.Records) != wantRecords {
			t.Fatalf("cut %d: second open not clean: torn %d, %d records", cut, rec3.TornBytes, len(rec3.Records))
		}
		s3.Close()
	}
}

// TestMidLogCorruptionRejected flips one byte inside an interior record
// and asserts Open refuses with ErrCorrupt instead of silently
// truncating away committed state.
func TestMidLogCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	appendN(t, s, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a payload byte of the first record (past its header).
	raw[frameHeader+2] ^= 0xff
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on interior damage: %v, want ErrCorrupt", err)
	}
}

// TestSeqGapRejected hand-writes a log whose sequence numbers skip —
// intact checksums, missing history — and asserts it is rejected.
func TestSeqGapRejected(t *testing.T) {
	dir := t.TempDir()
	var buf []byte
	for _, seq := range []uint64{1, 3} {
		buf = encodeFrame(buf, marshalRecord(t, seq, "x", nil))
	}
	if err := os.WriteFile(filepath.Join(dir, walName), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on seq gap: %v, want ErrCorrupt", err)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	appendN(t, s, 10)
	state := []byte(`{"world":"up to 10"}`)
	if err := s.Snapshot(state, 10); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.WALRecords != 0 || st.SnapshotSeq != 10 {
		t.Fatalf("post-snapshot status: %+v", st)
	}
	appendN(t, s, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec := openT(t, dir, Options{})
	defer s2.Close()
	if !bytes.Equal(rec.Snapshot, state) {
		t.Fatalf("snapshot = %s", rec.Snapshot)
	}
	if rec.SnapshotSeq != 10 || len(rec.Records) != 3 {
		t.Fatalf("snapshotSeq %d, %d tail records", rec.SnapshotSeq, len(rec.Records))
	}
	if rec.Records[0].Seq != 11 || rec.LastSeq() != 13 {
		t.Fatalf("tail records: %+v", rec.Records)
	}
}

// TestSnapshotCoveringPrefix snapshots behind the live head: the
// uncovered suffix must stay in the WAL and replay over the snapshot.
func TestSnapshotCoveringPrefix(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	appendN(t, s, 8)
	if err := s.Snapshot([]byte("state@5"), 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openT(t, dir, Options{})
	if string(rec.Snapshot) != "state@5" || len(rec.Records) != 3 || rec.Records[0].Seq != 6 {
		t.Fatalf("recovery: snap %q, records %+v", rec.Snapshot, rec.Records)
	}
}

// TestCrashBetweenSnapshotAndCompaction simulates the window where the
// new snapshot is renamed in but the WAL still holds covered records:
// replay must skip them by sequence, and the next compaction must drop
// them with the records its own snapshot covers.
func TestCrashBetweenSnapshotAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	appendN(t, s, 6)
	walRaw, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot([]byte("state@6"), 6); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Put the pre-compaction WAL back, as if the crash hit after the
	// snapshot rename but before the WAL rewrite landed.
	if err := os.WriteFile(filepath.Join(dir, walName), walRaw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, rec := openT(t, dir, Options{})
	defer s2.Close()
	if string(rec.Snapshot) != "state@6" || len(rec.Records) != 0 {
		t.Fatalf("recovery: snap %q, %d records (want 0: all covered)", rec.Snapshot, len(rec.Records))
	}
	if seq, err := s2.Append("x", nil); err != nil || seq != 7 {
		t.Fatalf("append after covered-log recovery: seq %d, %v", seq, err)
	}
	appendN(t, s2, 2)
	if err := s2.Snapshot([]byte("state@8"), 8); err != nil {
		t.Fatal(err)
	}
	if st := s2.Status(); st.WALRecords != 1 {
		t.Fatalf("after compacting 8 of 9 records: %d WAL records, want 1", st.WALRecords)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, rec := openT(t, dir, Options{})
	defer s3.Close()
	if string(rec.Snapshot) != "state@8" || len(rec.Records) != 1 || rec.Records[0].Seq != 9 {
		t.Fatalf("recovery after compaction: snap %q, records %+v", rec.Snapshot, rec.Records)
	}
}

// TestCompactionDecodesNoRecord: compaction finds the kept frames by
// stepping over the covered ones, so one snapshot over a 256-record WAL
// with 10 records left uncovered allocates fewer times than the WAL has
// records.
func TestCompactionDecodesNoRecord(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{Sync: SyncNone})
	defer s.Close()
	const records = 256
	payload := strings.Repeat("x", 1024)
	for i := 0; i < records; i++ {
		if _, err := s.Append("test.blob", payload); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Snapshot([]byte(`{}`), records-10); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n >= records {
		t.Fatalf("one snapshot allocated %d times over a %d-record WAL, want fewer than %d", n, records, records)
	}
	if st := s.Status(); st.WALRecords != 10 {
		t.Fatalf("%d WAL records after the snapshot, want 10", st.WALRecords)
	}
}

func TestSnapshotValidation(t *testing.T) {
	s, _ := openT(t, t.TempDir(), Options{})
	defer s.Close()
	appendN(t, s, 3)
	if err := s.Snapshot(nil, 9); err == nil {
		t.Fatal("snapshot beyond the log accepted")
	}
	if err := s.Snapshot(nil, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(nil, 2); err == nil {
		t.Fatal("regressing snapshot accepted")
	}
}

// TestCorruptSnapshotRejected damages a three-frame snapshot file in
// each of its frames, tears or extends it, and empties it; since
// snapshots are written atomically, damage is never a crash artifact.
func TestCorruptSnapshotRejected(t *testing.T) {
	damage := map[string]func([]byte) []byte{
		"first payload": func(b []byte) []byte { b[frameHeader] ^= 0x01; return b },
		"middle header": func(b []byte) []byte { b[snapFrameSize+4] ^= 0x01; return b },
		"last payload":  func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"torn":          func(b []byte) []byte { return b[:len(b)-1] },
		"trailing byte": func(b []byte) []byte { return append(b, 0) },
		"empty":         func([]byte) []byte { return nil },
	}
	for name, hurt := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := openT(t, dir, Options{})
			appendN(t, s, 2)
			if err := s.Snapshot(testState(2*snapFrameSize+100), 2); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, snapName(2))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, hurt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open on damaged snapshot: %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestOldSnapshotsPruned(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	defer s.Close()
	appendN(t, s, 2)
	if err := s.Snapshot([]byte("a"), 2); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 2)
	if err := s.Snapshot([]byte("b"), 4); err != nil {
		t.Fatal(err)
	}
	seqs := snapshotSeqs(faultfs.OS(), dir)
	if len(seqs) != 1 || seqs[0] != 4 {
		t.Fatalf("snapshots on disk: %v", seqs)
	}
}

// TestLeftoverTempFilesIgnored plants crashed .tmp artifacts; recovery
// must discard them and trust only named, renamed files.
func TestLeftoverTempFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	appendN(t, s, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{snapName(99) + tmpSuffix, walName + tmpSuffix} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, rec := openT(t, dir, Options{})
	defer s2.Close()
	if rec.SnapshotSeq != 0 || len(rec.Records) != 2 {
		t.Fatalf("recovery with temp litter: %+v", rec)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(99)+tmpSuffix)); !os.IsNotExist(err) {
		t.Fatal("snapshot temp file not removed")
	}
}

func TestParseSyncMode(t *testing.T) {
	for in, want := range map[string]SyncMode{"": SyncAlways, "always": SyncAlways, "interval": SyncInterval, "none": SyncNone} {
		got, err := ParseSyncMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncMode("sometimes"); err == nil {
		t.Fatal("bad mode accepted")
	}
}

// TestSyncIntervalDiscipline drives the interval clock and watches the
// fsync histogram tick only when the interval elapses.
func TestSyncIntervalDiscipline(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	s, _ := openT(t, t.TempDir(), Options{Sync: SyncInterval, now: clock})
	defer s.Close()

	before := obsFsync.Count()
	appendN(t, s, 3) // same instant: no interval elapsed
	if got := obsFsync.Count(); got != before {
		t.Fatalf("fsyncs within interval: %d", got-before)
	}
	now = now.Add(syncInterval)
	appendN(t, s, 1)
	if got := obsFsync.Count(); got != before+1 {
		t.Fatalf("fsyncs after interval: %d, want 1", got-before)
	}
}

func TestSyncAlwaysObservesLatency(t *testing.T) {
	s, _ := openT(t, t.TempDir(), Options{Sync: SyncAlways})
	defer s.Close()
	before := obsFsync.Count()
	appendN(t, s, 2)
	if got := obsFsync.Count() - before; got != 2 {
		t.Fatalf("fsync observations = %d, want 2", got)
	}
}

func TestStatusFields(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	appendN(t, s, 4)
	if err := s.Snapshot([]byte("x"), 2); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if st.Dir != dir || st.Sync != "always" || st.LastSeq != 4 || st.SnapshotSeq != 2 ||
		st.WALRecords != 2 || st.Appended != 4 || st.Snapshots != 1 {
		t.Fatalf("status: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := openT(t, dir, Options{})
	defer s2.Close()
	if st := s2.Status(); st.Replayed != 2 || st.LastSeq != 4 {
		t.Fatalf("post-restart status: %+v", st)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	s, _ := openT(t, t.TempDir(), Options{maxRecord: 128})
	defer s.Close()
	if _, err := s.Append("big", map[string]string{"x": fmt.Sprintf("%0200d", 1)}); err == nil {
		t.Fatal("oversize record accepted")
	}
	if _, err := s.Append("ok", nil); err != nil {
		t.Fatalf("small record after rejection: %v", err)
	}
}
