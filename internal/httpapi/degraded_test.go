package httpapi

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wsdeploy/internal/faultfs"
	"wsdeploy/internal/reconcile"
	"wsdeploy/internal/store"
	"wsdeploy/internal/tenant"
)

// faultedServer builds a durable single-tenant handler whose store sits
// on an injectable filesystem, with the debug fault surface enabled.
func faultedServer(t *testing.T, dir string) (*httptest.Server, *Handler, *faultfs.Injector, *store.Store) {
	t.Helper()
	in := faultfs.NewInjector(nil)
	h, def := durableHandler(t, dir, store.Options{Sync: store.SyncAlways, FS: in}, in)
	st := def.Store()
	t.Cleanup(func() { st.Close() })
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, h, in, st
}

// TestDegradedModeEndToEnd walks the whole degraded-mode contract over
// live HTTP: an fsync fault fail-stops the journal mid-request; from
// then on mutations answer 503 + Retry-After while reads, compute and
// status keep serving 200; readyz names the degraded tenant; and after
// the disk heals the recovery probe restores full service with the
// rejected mutation retriable exactly once.
func TestDegradedModeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	srv, h, _, st := faultedServer(t, dir)
	wf, n := specPair(t)

	// Healthy: the fleet genesis journals fine.
	mustOK(t, srv, http.MethodPut, "/v1/fleet", `{"network": `+n+`}`)

	// Arm a sticky fsync fault through the debug surface, as the smoke
	// script does against a live daemon.
	mustOK(t, srv, http.MethodPost, "/v1/debug/diskfault", `{"kind": "sync-error", "sticky": true}`)

	// The in-flight mutation that trips the fault is rejected loudly —
	// journal-before-acknowledge means the client knows it didn't land.
	resp, out := do(t, http.MethodPost, srv.URL+"/v1/fleet/workflows", `{"id": "wf1", "workflow": `+wf+`}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mutation that tripped the fault = %d (%v), want 503", resp.StatusCode, out)
	}
	if st.Failed() == nil {
		t.Fatal("store did not fail-stop after the fsync fault")
	}

	// Subsequent mutations are shed up front with a Retry-After hint.
	resp, out = do(t, http.MethodPost, srv.URL+"/v1/fleet/workflows", `{"id": "wf1", "workflow": `+wf+`}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded mutation = %d (%v), want 503", resp.StatusCode, out)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("degraded 503 carries no Retry-After")
	}
	for _, path := range []string{"/v1/deploy", "/v1/reconcile", "/v1/specs", "/v1/autopilot"} {
		resp, _ := do(t, http.MethodPost, srv.URL+path, `{}`)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("degraded POST %s = %d, want 503", path, resp.StatusCode)
		}
	}

	// Reads, compute and status stay up: degraded is read-only, not down.
	getBody(t, srv, "/v1/fleet/status")
	getBody(t, srv, "/v1/store/status")
	mustOK(t, srv, http.MethodPost, "/v1/portfolio", `{"workflow": `+wf+`, "network": `+n+`}`)

	// readyz stays 200 (the process serves) but names the wounded tenant.
	body := getBody(t, srv, "/v1/readyz")
	if !strings.Contains(body, `"degraded"`) || !strings.Contains(body, tenant.DefaultName) {
		t.Fatalf("readyz does not report the degraded tenant: %s", body)
	}
	if got := h.DegradedTenants(); len(got) != 1 || got[0] != tenant.DefaultName {
		t.Fatalf("DegradedTenants = %v", got)
	}

	// Probing a still-sick disk must keep the tenant degraded.
	if rec, deg := h.ProbeDegraded(); len(rec) != 0 || len(deg) != 1 {
		t.Fatalf("probe on sick disk: recovered=%v degraded=%v", rec, deg)
	}

	// Heal and probe: the journal reopens, the quarantined tail is set
	// aside, and full service resumes.
	mustOK(t, srv, http.MethodPost, "/v1/debug/diskfault", `{"clear": true}`)
	recovered, degraded := h.ProbeDegraded()
	if len(recovered) != 1 || len(degraded) != 0 {
		t.Fatalf("probe after heal: recovered=%v degraded=%v", recovered, degraded)
	}
	if body := getBody(t, srv, "/v1/readyz"); strings.Contains(body, `"degraded"`) {
		t.Fatalf("readyz still degraded after recovery: %s", body)
	}

	// The faulted mutation's 503 was indeterminate: the fleet applies in
	// memory before it journals, so wf1 landed — the recovery snapshot
	// made it durable, and a retry resolves the ambiguity as a 409, not
	// a duplicate deployment.
	resp, out = do(t, http.MethodPost, srv.URL+"/v1/fleet/workflows", `{"id": "wf1", "workflow": `+wf+`}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("retry of indeterminate mutation = %d (%v), want 409", resp.StatusCode, out)
	}
	status := getBody(t, srv, "/v1/fleet/status")
	if !strings.Contains(status, `"workflows": 1`) {
		t.Fatalf("fleet status after recovery: %s", status)
	}
	// Fresh mutations flow again on the healthy journal.
	mustOK(t, srv, http.MethodPost, "/v1/fleet/workflows", `{"id": "wf2", "workflow": `+wf+`}`)

	// And everything observable is durable again: a cold restart from
	// the recovered directory replays to the same fleet.
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, _, _, _ := faultedServer(t, dir)
	status = getBody(t, srv2, "/v1/fleet/status")
	if !strings.Contains(status, `"workflows": 2`) {
		t.Fatalf("fleet status after restart: %s", status)
	}
}

// TestDegradedHoldsReconciler: while a tenant is degraded its reconcile
// passes are held no-ops (nothing to journal, nothing burned), and the
// hold lifts on the first pass after recovery.
func TestDegradedHoldsReconciler(t *testing.T) {
	srv, h, in, st := faultedServer(t, t.TempDir())
	mustOK(t, srv, http.MethodPost, "/v1/specs", specBody(t, "edge", "a"))

	in.Arm(faultfs.Fault{Kind: faultfs.SyncErr, At: -1, Sticky: true})
	if _, err := st.Append("poison", map[string]int{"n": 1}); err == nil {
		t.Fatal("poisoned append succeeded")
	}

	ts := h.states[tenant.DefaultName]
	var res reconcile.PassResult
	ts.mutate(func() { res = ts.specs.runPassLocked(0) })
	if !res.Held {
		t.Fatalf("pass on degraded tenant not held: %+v", res)
	}
	if !ts.specs.rec.Held() {
		t.Fatal("reconciler not held while degraded")
	}

	in.Clear()
	if err := st.Reopen(); err != nil {
		t.Fatal(err)
	}
	ts.mutate(func() { res = ts.specs.runPassLocked(1) })
	if res.Held {
		t.Fatal("pass still held after recovery")
	}
}

// TestMutatePanicDoesNotLeakLock: a panic inside a mutation (recovered
// by the HTTP backstop in production) must not leave the tenant's lock
// held, or every later request and snapshot of the tenant would
// deadlock.
func TestMutatePanicDoesNotLeakLock(t *testing.T) {
	h := NewHandler()
	h.tmu.RLock()
	ts := h.states[tenant.DefaultName]
	h.tmu.RUnlock()
	func() {
		defer func() { recover() }()
		ts.mutate(func() { panic("handler bug") })
	}()
	locked := make(chan struct{})
	go func() {
		ts.mu.Lock()
		ts.mu.Unlock()
		close(locked)
	}()
	select {
	case <-locked:
	case <-time.After(2 * time.Second):
		t.Fatal("tenant lock unobtainable: mutate leaked it on panic")
	}
}
