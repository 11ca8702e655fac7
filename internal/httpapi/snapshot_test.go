package httpapi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"wsdeploy/internal/store"
	"wsdeploy/internal/tenant"
)

// defaultTenant returns the handler's default tenant state.
func defaultTenant(h *Handler) *tenantState {
	h.tmu.RLock()
	defer h.tmu.RUnlock()
	return h.states[tenant.DefaultName]
}

// benchLedger builds n deterministic ledger entries shaped like the
// deploy-cached benchmark's: an 84-operation mapping over 12 servers
// and its cost report.
func benchLedger(n int) []deployEntry {
	algos := []string{"localsearch", "holm", "fairload", "anneal"}
	out := make([]deployEntry, n)
	for i := range out {
		mapping := make([]int, 84)
		for j := range mapping {
			mapping[j] = (i + 5*j) % 12
		}
		loads := make([]float64, 12)
		for j := range loads {
			loads[j] = float64(i%97+j) * 0.0131
		}
		out[i] = deployEntry{
			ID:        fmt.Sprintf("bench-%d", i+1),
			Algorithm: algos[i%len(algos)],
			Mapping:   mapping,
			Metrics: Metrics{
				ExecTime:    float64(i) * 1.7e-3,
				TimePenalty: float64(i%13) / 7,
				Combined:    float64(i)*1.7e-3 + float64(i%13)/7,
				Makespan:    float64(i%31) * 2.5e-2,
				Loads:       loads,
			},
		}
	}
	return out
}

// TestCompositeEncodeRoundTrips streams composites through encode and
// reads them back through decodeComposite, the decoder restore uses:
// every durable domain, escaping, nil slices, a 5,000-entry ledger and
// a ledger sharing plans come back as they went in.
func TestCompositeEncodeRoundTrips(t *testing.T) {
	srv, st := durableServer(t, t.TempDir())
	defer srv.Close()
	defer st.Close()
	driveDurableState(t, srv)
	mustOK(t, srv, http.MethodPost, "/v1/specs", specBody(t, "app", "wf-a"))
	live, _, err := defaultTenant(srv.Config.Handler.(*Handler)).captureComposite()
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Fleet) == 0 || len(live.Deployments) == 0 || live.Autopilot == nil || len(live.Specs) == 0 {
		t.Fatal("the live state misses a durable domain")
	}

	var shared deployLedger
	for _, e := range append(benchLedger(3), benchLedger(3)...) {
		shared.add(e)
	}
	requireShared(t, shared.entries[0], shared.entries[3])

	cases := []struct {
		name string
		c    *composite
	}{
		{"empty ledger", &composite{}},
		{"fleet only", &composite{Fleet: json.RawMessage(`{"name": "<edge> & co", "servers": [1, 2]}`)}},
		{"ledger, specs and autopilot", live},
		{"escaping and nil slices", &composite{Deployments: []deployEntry{{ID: "<named> & \u2028", Algorithm: "holm"}}}},
		{"5000-entry ledger", &composite{Deployments: benchLedger(5000)}},
		{"ledger sharing plans", &composite{Deployments: shared.entries}},
	}
	for _, tc := range cases {
		want, err := json.Marshal(tc.c)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tc.c.encode(&buf); err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		back, err := decodeComposite(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		got, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: round trip changed the composite\n got: %.300s\nwant: %.300s", tc.name, got, want)
		}
	}
}

// snapshotState adds n benchmark entries to the default tenant of a
// durable server driven through every durable domain, and returns the
// tenant and json.Marshal of its composite.
func snapshotState(t *testing.T, srv *httptest.Server, n int) (*tenantState, []byte) {
	t.Helper()
	driveDurableState(t, srv)
	mustOK(t, srv, http.MethodPost, "/v1/specs", specBody(t, "app", "wf-a"))
	ts := defaultTenant(srv.Config.Handler.(*Handler))
	ts.mu.Lock()
	ts.deps.entries = append(ts.deps.entries, benchLedger(n)...)
	ts.mu.Unlock()
	c, _, err := ts.captureComposite()
	if err != nil {
		t.Fatal(err)
	}
	state, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return ts, state
}

// recoveredState reopens dir and returns json.Marshal of the default
// tenant's recovered composite.
func recoveredState(t *testing.T, dir string) []byte {
	t.Helper()
	h, def := durableHandler(t, dir, store.Options{Sync: store.SyncNone}, nil)
	defer def.Store().Close()
	defer h.Close()
	c, _, err := defaultTenant(h).captureComposite()
	if err != nil {
		t.Fatal(err)
	}
	state, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// TestStreamedSnapshotRecovers writes a composite snapshot through
// SnapshotTo (live fleet, ledger, autopilot run and spec, plus 5,000
// ledger entries so the stream spans many frames) and recovers it
// through restoreFromRecovery to the same state.
func TestStreamedSnapshotRecovers(t *testing.T) {
	dir := t.TempDir()
	srv, st := durableServer(t, dir)
	ts, want := snapshotState(t, srv, 5000)
	if err := ts.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := recoveredState(t, dir); !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs from the snapshotted one\n got: %.300s\nwant: %.300s", got, want)
	}
}

// writeParentFormatSnapshot overwrites the default tenant's existing
// snapshot at seq with the file the daemon wrote before the ledger
// streamed: one CRC32C frame around payload.
func writeParentFormatSnapshot(t *testing.T, dir string, seq uint64, payload []byte) {
	t.Helper()
	frame := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	path := filepath.Join(dir, tenant.DefaultName, fmt.Sprintf("snap-%020d.bin", seq))
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(frame, payload...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestParentFormatSnapshotRecovers replaces a composite snapshot with
// the file the daemon wrote before the ledger streamed as a value
// sequence: one CRC32C frame around json.Marshal of the composite, here
// with a 500-entry ledger. It recovers to the same state.
func TestParentFormatSnapshotRecovers(t *testing.T) {
	dir := t.TempDir()
	srv, st := durableServer(t, dir)
	ts, want := snapshotState(t, srv, 500)
	if err := ts.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	snaps := st.Status().SnapshotSeqs
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("snapshots %v, want one", snaps)
	}
	writeParentFormatSnapshot(t, dir, snaps[0], want)
	if got := recoveredState(t, dir); !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs from the parent-format snapshot\n got: %.300s\nwant: %.300s", got, want)
	}
}

// BenchmarkSnapshotNow takes one composite snapshot of a 5,000-entry
// deployment ledger per iteration: capture, encode, temp-file write,
// fsyncs and WAL compaction. Run it with -benchmem: B/op is the heap a
// snapshot churns through.
func BenchmarkSnapshotNow(b *testing.B) {
	h, def := durableHandler(b, b.TempDir(), store.Options{Sync: store.SyncNone}, nil)
	defer def.Store().Close()
	defer h.Close()
	ts := defaultTenant(h)
	ts.deps.entries = benchLedger(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ts.SnapshotNow(); err != nil {
			b.Fatal(err)
		}
	}
}
