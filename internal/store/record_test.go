package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// encodeFrame appends one framed payload to buf and returns it.
func encodeFrame(buf, payload []byte) []byte {
	start := len(buf)
	buf = append(append(buf, make([]byte, frameHeader)...), payload...)
	sealFrame(buf[start:])
	return buf
}

// marshalRecord is the reference encoding of a record's payload: the
// envelope marshalled around its data, which is marshalled on its own
// first.
func marshalRecord(tb testing.TB, seq uint64, typ string, data any) []byte {
	tb.Helper()
	payload, err := json.Marshal(data)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := json.Marshal(Record{Seq: seq, Type: typ, Data: payload})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// recordCases are payloads whose encodings differ from their input, or
// from a naive one: a raw message compacted and escaped, HTML and line
// separators escaped inside strings, nil and an empty struct.
var recordCases = []struct {
	name string
	typ  string
	data any
}{
	{"raw message with whitespace", "raw", json.RawMessage(" { \"a\" : [ 1 ,\n 2 ] ,\t\"b\" : null } ")},
	{"raw message with <>& and U+2028", "raw", json.RawMessage(`{"s": "<edge> & co` + "\u2028" + `"}`)},
	{"string with <>& and U+2028", "text", map[string]string{"note": "a<b>&c\u2028d\u2029e"}},
	{"nil", "nil", nil},
	{"nil raw message", "nil", json.RawMessage(nil)},
	{"empty struct", "empty", struct{}{}},
	{"nested struct", "bench", benchPayload{ID: 7, Name: "wf-<7>", Note: "\"quoted\"\n"}},
	{"type needing escapes", `odd "type" <&>`, []int{1, 2, 3}},
}

// TestAppendFrameMatchesMarshal holds Append's one-pass encoding to the
// reference: every frame it writes equals encodeFrame of json.Marshal
// of the envelope around json.Marshal of the data.
func TestAppendFrameMatchesMarshal(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{Sync: SyncNone})
	var want []byte
	for i, tc := range recordCases {
		seq, err := s.Append(tc.typ, tc.data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("%s: seq %d, want %d", tc.name, seq, i+1)
		}
		want = encodeFrame(want, marshalRecord(t, seq, tc.typ, tc.data))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL differs from the reference encoding\n got: %q\nwant: %q", got, want)
	}
}

// TestAppendRejectsUnencodable: data json.Marshal refuses fails the
// append without consuming a sequence number.
func TestAppendRejectsUnencodable(t *testing.T) {
	s, _ := openT(t, t.TempDir(), Options{Sync: SyncNone})
	defer s.Close()
	if _, err := s.Append("bad", map[string]any{"ch": make(chan int)}); err == nil {
		t.Fatal("Append encoded a channel")
	}
	if seq, err := s.Append("good", 1); err != nil || seq != 1 {
		t.Fatalf("Append after a refused record: seq %d, %v; want 1", seq, err)
	}
}

// TestCompactionMatchesReencode compacts a log and requires the kept
// tail to equal the kept records re-encoded: each decoded record
// marshalled by json.Marshal and framed.
func TestCompactionMatchesReencode(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, walName)
	s, _ := openT(t, dir, Options{Sync: SyncNone})
	defer s.Close()
	for round := 0; round < 2; round++ {
		for _, tc := range recordCases {
			if _, err := s.Append(tc.typ, tc.data); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		covered := s.LastSeq() - 3
		raw, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := scanWAL(raw, s.SnapshotSeq(), maxRecordBytes)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, r := range scan.records {
			if r.Seq > covered {
				b, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				want = encodeFrame(want, b)
			}
		}
		if err := s.Snapshot([]byte(`{}`), covered); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: compacted WAL differs from the re-encoded records\n got: %q\nwant: %q", round, got, want)
		}
		if st := s.Status(); st.WALRecords != 3 || st.WALBytes != int64(len(want)) {
			t.Fatalf("round %d: status %d records, %d bytes; want 3 and %d", round, st.WALRecords, st.WALBytes, len(want))
		}
	}
}

// BenchmarkAppendLargeRecord appends one ~18 KB record, the size of a
// spec revision, and reports what encoding it allocates.
func BenchmarkAppendLargeRecord(b *testing.B) {
	s, _, err := Open(b.TempDir(), Options{Sync: SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	notes := make([]benchPayload, 160)
	for i := range notes {
		notes[i] = benchPayload{ID: i, Name: "workflow-slot", Note: "op A 20M msg 7581B op B 30M"}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append("bench.large", notes); err != nil {
			b.Fatal(err)
		}
	}
}
