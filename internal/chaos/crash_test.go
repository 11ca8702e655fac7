package chaos

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"wsdeploy/internal/store"
)

// TestCrashInteriorBitFlipRejected flips one byte inside a committed
// interior record: recovery must refuse loudly (ErrCorrupt), never
// silently truncate history that was acknowledged.
func TestCrashInteriorBitFlipRejected(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(dir, store.Options{Sync: store.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := st.Append("fleet.markdown", map[string]int{"index": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	wal := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of an early record: CRC fails there while
	// intact frames still follow, which recovery must treat as
	// mid-log corruption, not a torn tail.
	data[len(data)/4] ^= 0x40
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Open(dir, store.Options{}); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("interior bit flip: Open returned %v, want ErrCorrupt", err)
	}
}
