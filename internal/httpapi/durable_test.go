package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"wsdeploy/internal/faultfs"
	"wsdeploy/internal/gen"
	"wsdeploy/internal/store"
	"wsdeploy/internal/tenant"
)

// durableHandler opens (or reopens) a tenant registry over dir, as the
// daemon does, and builds a handler on it. It returns the default
// tenant, whose store the caller closes to simulate a shutdown.
func durableHandler(tb testing.TB, dir string, opts store.Options, in *faultfs.Injector) (*Handler, *tenant.Tenant) {
	tb.Helper()
	reg, err := tenant.Open(tenant.Config{DataDir: dir, Store: opts})
	if err != nil {
		tb.Fatal(err)
	}
	h, err := NewHandlerWith(Options{Tenants: reg, FaultInjector: in})
	if err != nil {
		tb.Fatal(err)
	}
	def, _ := reg.Get(tenant.DefaultName)
	return h, def
}

// durableServer serves a durable handler over dir and returns the
// default tenant's store.
func durableServer(t *testing.T, dir string) (*httptest.Server, *store.Store) {
	t.Helper()
	h, def := durableHandler(t, dir, store.Options{Sync: store.SyncNone}, nil)
	return httptest.NewServer(h), def.Store()
}

// getBody fetches a URL and returns the raw response body.
func getBody(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", path, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// mustOK posts and requires a 200.
func mustOK(t *testing.T, srv *httptest.Server, method, path, body string) map[string]any {
	t.Helper()
	resp, out := do(t, method, srv.URL+path, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s = %d: %v", method, path, resp.StatusCode, out)
	}
	return out
}

// driveDurableState exercises every durable surface: fleet lifecycle,
// the deployment ledger (with one plan deployed twice, so the ledger
// shares it) and one autopilot run.
func driveDurableState(t *testing.T, srv *httptest.Server) {
	t.Helper()
	wf, n := specPair(t)
	mustOK(t, srv, http.MethodPut, "/v1/fleet", `{"network": `+n+`}`)
	mustOK(t, srv, http.MethodPost, "/v1/fleet/workflows", `{"id": "wf1", "workflow": `+wf+`}`)
	mustOK(t, srv, http.MethodPost, "/v1/fleet/workflows", `{"id": "wf2", "workflow": `+wf+`}`)
	mustOK(t, srv, http.MethodPost, "/v1/fleet/servers", `{"name": "joined", "powerHz": 2.5e9}`)
	mustOK(t, srv, http.MethodDelete, "/v1/fleet/servers/0", "")
	mustOK(t, srv, http.MethodPost, "/v1/fleet/rebalance", "")

	for _, want := range []string{"dep-1", "dep-2"} {
		out := mustOK(t, srv, http.MethodPost, "/v1/deploy",
			`{"workflow": `+wf+`, "network": `+n+`, "algorithm": "holm"}`)
		if out["id"] != want {
			t.Fatalf("auto ledger id = %v, want %s", out["id"], want)
		}
	}
	out := mustOK(t, srv, http.MethodPost, "/v1/deploy",
		`{"id": "named", "workflow": `+wf+`, "network": `+n+`, "algorithm": "fairload"}`)
	if out["id"] != "named" {
		t.Fatalf("named ledger id = %v", out["id"])
	}

	mustOK(t, srv, http.MethodPost, "/v1/autopilot", autopilotBody(t, true, ""))
}

// durableViews captures every recoverable GET surface.
func durableViews(t *testing.T, srv *httptest.Server) map[string]string {
	t.Helper()
	return map[string]string{
		"fleet snapshot": getBody(t, srv, "/v1/fleet/snapshot"),
		"fleet status":   getBody(t, srv, "/v1/fleet/status"),
		"deployments":    getBody(t, srv, "/v1/deployments"),
		"autopilot":      getBody(t, srv, "/v1/autopilot"),
	}
}

// TestFailedServerRemovalLeavesFleet: removing the one server that is
// up, with every other server marked down, answers 422 and leaves the
// fleet as it was, byte for byte, journaling nothing; the shutdown
// snapshot taken next must boot again.
func TestFailedServerRemovalLeavesFleet(t *testing.T) {
	dir := t.TempDir()
	srv, st := durableServer(t, dir)
	wf, n := specPair(t)
	onLast := strings.TrimSuffix(strings.Repeat("4,", gen.MotivatingExample().M()), ",")
	mustOK(t, srv, http.MethodPut, "/v1/fleet/snapshot", `{"network": `+n+`, "down": [0, 1, 2, 3], `+
		`"workflows": [{"id": "wf1", "workflow": `+wf+`, "mapping": [`+onLast+`]}]}`)
	before, seq := getBody(t, srv, "/v1/fleet/snapshot"), st.LastSeq()

	resp, out := do(t, http.MethodDelete, srv.URL+"/v1/fleet/servers/4", "")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("removing the last server up = %d, want 422: %v", resp.StatusCode, out)
	}
	if after := getBody(t, srv, "/v1/fleet/snapshot"); after != before {
		t.Fatalf("failed removal changed the fleet:\n got: %s\nwant: %s", after, before)
	}
	if got := st.LastSeq(); got != seq {
		t.Fatalf("failed removal journaled: lastSeq %d, want %d", got, seq)
	}

	if err := srv.Config.Handler.(*Handler).SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, st2 := durableServer(t, dir) // fails the test if the snapshot does not boot
	defer srv2.Close()
	defer st2.Close()
	if got := getBody(t, srv2, "/v1/fleet/snapshot"); got != before {
		t.Fatalf("fleet after reboot:\n got: %s\nwant: %s", got, before)
	}
}

// TestDurableRestartRoundTrip kills the daemon (no graceful snapshot)
// and asserts every stateful endpoint serves byte-identical responses
// after recovery replays the raw WAL.
func TestDurableRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	srv, st := durableServer(t, dir)
	driveDurableState(t, srv)
	before := durableViews(t, srv)
	srv.Close()
	// No SnapshotNow: this restart replays the log alone, like kill -9.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, st2 := durableServer(t, dir)
	defer srv2.Close()
	defer st2.Close()
	if st2.SnapshotSeq() != 0 {
		t.Fatalf("unexpected snapshot at seq %d; wanted raw-log replay", st2.SnapshotSeq())
	}
	after := durableViews(t, srv2)
	for name, want := range before {
		if after[name] != want {
			t.Fatalf("%s diverged after restart:\n got: %s\nwant: %s", name, after[name], want)
		}
	}
	entries := ledgerEntries(srv2.Config.Handler.(*Handler))
	requireShared(t, entries[0], entries[1])

	// The next auto id is the ledger position: dep-4 after three
	// entries, one of them named.
	wf, n := specPair(t)
	out := mustOK(t, srv2, http.MethodPost, "/v1/deploy",
		`{"workflow": `+wf+`, "network": `+n+`, "algorithm": "holm"}`)
	if out["id"] != "dep-4" {
		t.Fatalf("post-restart auto id = %v, want dep-4", out["id"])
	}
}

// TestDurableSnapshotRoundTrip folds the state into a composite
// snapshot (the graceful-shutdown path), restarts, and expects the
// same responses from snapshot-based recovery.
func TestDurableSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	srv, st := durableServer(t, dir)
	driveDurableState(t, srv)
	before := durableViews(t, srv)

	h := srv.Config.Handler.(*Handler)
	if err := h.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, st2 := durableServer(t, dir)
	defer srv2.Close()
	defer st2.Close()
	if st2.SnapshotSeq() == 0 {
		t.Fatal("composite snapshot not used for recovery")
	}
	after := durableViews(t, srv2)
	for name, want := range before {
		if after[name] != want {
			t.Fatalf("%s diverged after snapshot recovery:\n got: %s\nwant: %s", name, after[name], want)
		}
	}
	entries := ledgerEntries(srv2.Config.Handler.(*Handler))
	requireShared(t, entries[0], entries[1])
}

// TestNextAutoIDSameOnEveryRoute: after dep-1, dep-2 and a named
// deploy, a daemon that never restarted, one recovered from the raw
// WAL, one recovered from a composite snapshot and one recovered from a
// parent-format snapshot that still carries the old "nextDepId"
// counter all assign dep-4 next: an auto id is the entry's position.
func TestNextAutoIDSameOnEveryRoute(t *testing.T) {
	wf, n := specPair(t)
	auto := `{"workflow": ` + wf + `, "network": ` + n + `, "algorithm": "holm"}`
	history := func(srv *httptest.Server) {
		mustOK(t, srv, http.MethodPost, "/v1/deploy", auto)
		mustOK(t, srv, http.MethodPost, "/v1/deploy", auto)
		mustOK(t, srv, http.MethodPost, "/v1/deploy", `{"id": "named", "workflow": `+wf+`, "network": `+n+`, "algorithm": "holm"}`)
	}
	// restart closes srv and its store, and serves dir again.
	restart := func(srv *httptest.Server, st *store.Store, dir string) (*httptest.Server, *store.Store) {
		srv.Close()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return durableServer(t, dir)
	}
	routes := []struct {
		name string
		// after runs once the history is committed and returns the
		// server whose next auto id counts.
		after func(srv *httptest.Server, st *store.Store, dir string) (*httptest.Server, *store.Store)
	}{
		{"never restarted", func(srv *httptest.Server, st *store.Store, _ string) (*httptest.Server, *store.Store) {
			return srv, st
		}},
		{"raw-WAL recovery", restart},
		{"snapshot recovery", func(srv *httptest.Server, st *store.Store, dir string) (*httptest.Server, *store.Store) {
			if err := srv.Config.Handler.(*Handler).SnapshotNow(); err != nil {
				t.Fatal(err)
			}
			return restart(srv, st, dir)
		}},
		{"parent-format snapshot with nextDepId", func(srv *httptest.Server, st *store.Store, dir string) (*httptest.Server, *store.Store) {
			ts := defaultTenant(srv.Config.Handler.(*Handler))
			if err := ts.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
			c, seq, err := ts.captureComposite()
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			var obj map[string]json.RawMessage
			if err := json.Unmarshal(raw, &obj); err != nil {
				t.Fatal(err)
			}
			// The old counter after dep-1, dep-2 and a named deploy was 2.
			obj["nextDepId"] = json.RawMessage("2")
			payload, err := json.Marshal(obj)
			if err != nil {
				t.Fatal(err)
			}
			writeParentFormatSnapshot(t, dir, seq, payload)
			return restart(srv, st, dir)
		}},
	}
	for _, rt := range routes {
		t.Run(rt.name, func(t *testing.T) {
			dir := t.TempDir()
			srv, st := durableServer(t, dir)
			history(srv)
			srv, st = rt.after(srv, st, dir)
			defer srv.Close()
			defer st.Close()
			if out := mustOK(t, srv, http.MethodPost, "/v1/deploy", auto); out["id"] != "dep-4" {
				t.Fatalf("next auto id = %v, want dep-4", out["id"])
			}
		})
	}
}

// TestDurableAutoSnapshot journals more than replayBound mutations and
// expects the handler to compact on its own.
func TestDurableAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	srv, st := durableServer(t, dir)
	defer srv.Close()
	defer st.Close()
	driveDurableState(t, srv)
	wf, n := specPair(t)
	deploy := `{"workflow": ` + wf + `, "network": ` + n + `, "algorithm": "holm"}`
	for i := 0; i <= replayBound; i++ {
		mustOK(t, srv, http.MethodPost, "/v1/deploy", deploy)
	}
	if st.SnapshotSeq() == 0 {
		t.Fatalf("no automatic composite snapshot after %d journaled mutations", st.LastSeq())
	}
	if status := st.Status(); status.WALRecords >= status.Appended {
		t.Fatalf("compaction never shrank the WAL: %+v", status)
	}
}

// TestConcurrentCrossingsSnapshotOnce: deploys that cross the replay
// bound while a snapshot is in progress take one snapshot between them,
// not one each.
func TestConcurrentCrossingsSnapshotOnce(t *testing.T) {
	h, def := durableHandler(t, t.TempDir(), store.Options{Sync: store.SyncNone}, nil)
	defer h.Close()
	st := def.Store()
	defer st.Close()
	ts := defaultTenant(h)
	resp := deployResponse{Algorithm: "holm", Mapping: []int{0, 1}, Metrics: Metrics{Loads: []float64{1, 2}}}
	for i := 0; i < replayBound-1; i++ {
		if _, err := ts.commitDeployment("", resp); err != nil {
			t.Fatal(err)
		}
	}

	const crossers = 8
	ts.snapIOMu.Lock() // stands in for the snapshot in progress
	var wg sync.WaitGroup
	for i := 0; i < crossers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ts.commitDeployment("", resp); err != nil {
				t.Error(err)
			}
		}()
	}
	waitUntil(t, func() bool { return st.LastSeq() == replayBound-1+crossers })
	ts.snapIOMu.Unlock()
	wg.Wait()
	if got := st.Status().Snapshots; got != 1 {
		t.Fatalf("%d concurrent crossings took %d snapshots, want 1", crossers, got)
	}
}

// TestAutopilotResumeUsesPersistedDetector checks that "resume": true
// continues from the persisted hysteresis state after a restart: the
// resumed detector state differs from a cold re-run's only in history
// it carried over (here we just require the endpoint to accept resume
// and report a detector in GET).
func TestAutopilotResumeUsesPersistedDetector(t *testing.T) {
	dir := t.TempDir()
	srv, st := durableServer(t, dir)
	mustOK(t, srv, http.MethodPost, "/v1/autopilot", autopilotBody(t, true, ""))
	var got struct {
		Detector *struct {
			Armed []bool `json:"armed"`
		} `json:"detector"`
	}
	if err := json.Unmarshal([]byte(getBody(t, srv, "/v1/autopilot")), &got); err != nil {
		t.Fatal(err)
	}
	if got.Detector == nil || len(got.Detector.Armed) == 0 {
		t.Fatal("GET /v1/autopilot reports no persisted detector state")
	}
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, st2 := durableServer(t, dir)
	defer srv2.Close()
	defer st2.Close()
	mustOK(t, srv2, http.MethodPost, "/v1/autopilot", autopilotBody(t, true, `, "resume": true`))
}

// TestStoreStatusEndpoint covers both durability modes.
func TestStoreStatusEndpoint(t *testing.T) {
	plain := httptest.NewServer(NewHandler())
	defer plain.Close()
	if body := getBody(t, plain, "/v1/store/status"); !strings.Contains(body, `"durable": false`) {
		t.Fatalf("in-memory handler claims durability: %s", body)
	}

	srv, st := durableServer(t, t.TempDir())
	defer srv.Close()
	defer st.Close()
	wf, n := specPair(t)
	mustOK(t, srv, http.MethodPost, "/v1/deploy", `{"workflow": `+wf+`, "network": `+n+`}`)
	var out struct {
		Durable bool `json:"durable"`
		Store   struct {
			LastSeq  uint64 `json:"lastSeq"`
			Appended int64  `json:"appended"`
		} `json:"store"`
	}
	if err := json.Unmarshal([]byte(getBody(t, srv, "/v1/store/status")), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Durable || out.Store.LastSeq == 0 || out.Store.Appended == 0 {
		t.Fatalf("store status after a journaled deploy: %+v", out)
	}
}
