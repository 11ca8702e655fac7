package store

import (
	"os"
	"path/filepath"
	"testing"
)

// The faultfs indirection sits on the hottest durability path — every
// journalled mutation goes through Store.Append → FS.Write. These two
// benchmarks bound its cost: BenchmarkWALAppend measures the full
// Append through the default faultfs.OS() passthrough, and
// BenchmarkWALAppendDirect writes the same encoded frames straight to
// an *os.File. The delta between them is the interface dispatch —
// which should be lost in the noise next to the write syscall itself.
// SyncNone keeps fsync latency (milliseconds, device-bound) from
// drowning the comparison.

type benchPayload struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	Note string `json:"note"`
}

func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	s, _, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append("bench", benchPayload{ID: i, Name: "wf-bench", Note: "payload"}); err != nil {
			b.Fatalf("Append: %v", err)
		}
	}
}

func BenchmarkWALAppendDirect(b *testing.B) {
	dir := b.TempDir()
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		b.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := recordFrame(uint64(i+1), "bench", benchPayload{ID: i, Name: "wf-bench", Note: "payload"})
		if err != nil {
			b.Fatalf("encoding: %v", err)
		}
		if _, err := f.Write(frame); err != nil {
			b.Fatalf("Write: %v", err)
		}
	}
}
