package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wsdeploy/internal/network"
)

// specBody builds a POST /v1/specs payload over the shared test pair.
func specBody(t *testing.T, name string, ids ...string) string {
	t.Helper()
	wf, n := specPair(t)
	body := `{"name": "` + name + `", "spec": {"network": ` + n + `, "workflows": [`
	for i, id := range ids {
		if i > 0 {
			body += ","
		}
		body += `{"id": "` + id + `", "workflow": ` + wf + `}`
	}
	return body + `]}}`
}

// specStatusOf fetches one spec's status endpoint.
func specStatusOf(t *testing.T, srv *httptest.Server, name string) map[string]any {
	t.Helper()
	var out map[string]any
	if err := json.Unmarshal([]byte(getBody(t, srv, "/v1/specs/"+name+"/status")), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSpecLifecycleConverges walks the declarative surface end to end:
// post a spec, watch status lag, reconcile to convergence, revise,
// reconcile again, delete.
func TestSpecLifecycleConverges(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()

	out := mustOK(t, srv, http.MethodPost, "/v1/specs", specBody(t, "app", "wf-a", "wf-b"))
	if out["generation"] != float64(1) || out["converged"] != false {
		t.Fatalf("fresh spec status = %v", out)
	}
	if st := specStatusOf(t, srv, "app"); st["lag"] != float64(1) {
		t.Fatalf("pre-reconcile status = %v", st)
	}

	out = mustOK(t, srv, http.MethodPost, "/v1/reconcile", `{"passes": 8}`)
	if out["converged"] != true {
		t.Fatalf("reconcile did not converge: %v", out)
	}
	st := specStatusOf(t, srv, "app")
	if st["observedGeneration"] != float64(1) || st["converged"] != true {
		t.Fatalf("post-reconcile status = %v", st)
	}
	// The fleet now exists and carries the desired portfolio.
	var fleet struct {
		PerWorkflow map[string]float64 `json:"perWorkflow"`
	}
	if err := json.Unmarshal([]byte(getBody(t, srv, "/v1/fleet/status")), &fleet); err != nil {
		t.Fatal(err)
	}
	if len(fleet.PerWorkflow) != 2 {
		t.Fatalf("fleet workflows after convergence = %v", fleet.PerWorkflow)
	}

	// A revision that shrinks the portfolio lags until the next pass
	// removes the orphan.
	mustOK(t, srv, http.MethodPost, "/v1/specs", specBody(t, "app", "wf-a"))
	if st := specStatusOf(t, srv, "app"); st["generation"] != float64(2) || st["converged"] != false {
		t.Fatalf("post-revision status = %v", st)
	}
	mustOK(t, srv, http.MethodPost, "/v1/reconcile", `{"passes": 8}`)
	if st := specStatusOf(t, srv, "app"); st["observedGeneration"] != float64(2) {
		t.Fatalf("revision did not converge: %v", st)
	}
	fleet.PerWorkflow = nil
	if err := json.Unmarshal([]byte(getBody(t, srv, "/v1/fleet/status")), &fleet); err != nil {
		t.Fatal(err)
	}
	if _, ok := fleet.PerWorkflow["wf-a"]; !ok || len(fleet.PerWorkflow) != 1 {
		t.Fatalf("fleet workflows after revision = %v", fleet.PerWorkflow)
	}

	mustOK(t, srv, http.MethodDelete, "/v1/specs/app", "")
	if resp, _ := do(t, http.MethodGet, srv.URL+"/v1/specs/app", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET deleted spec = %d", resp.StatusCode)
	}
}

// TestSpecValidationGate rejects malformed specs before anything is
// journaled or applied.
func TestSpecValidationGate(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	_, n := specPair(t)

	for name, body := range map[string]string{
		"missing name":      `{"spec": {"workflows": [{"id": "a", "workflowWdl": "workflow w { op a 1e6 }"}]}}`,
		"no workflows":      `{"name": "x", "spec": {"network": ` + n + `, "workflows": []}}`,
		"unknown algorithm": `{"name": "x", "spec": {"algorithm": "nope", "workflows": [{"id": "a", "workflowWdl": "workflow w { op a 1e6 }"}]}}`,
		"workflow sans id":  `{"name": "x", "spec": {"workflows": [{"workflowWdl": "workflow w { op a 1e6 }"}]}}`,
	} {
		resp, _ := post(t, srv, "/v1/specs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s accepted with status %d", name, resp.StatusCode)
		}
	}
	if resp, _ := post(t, srv, "/v1/reconcile", `{"passes": 1}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("empty reconcile pass = %d", resp.StatusCode)
	}
}

// TestSpecMinServersCap: a spec asking for more servers than a network
// may hold answers 400, and a normal spec is accepted afterwards.
func TestSpecMinServersCap(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	body := strings.Replace(specBody(t, "app", "billing"), `"spec": {`,
		fmt.Sprintf(`"spec": {"minServers": %d, `, network.MaxServers+1), 1)
	if resp, out := post(t, srv, "/v1/specs", body); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(fmt.Sprint(out["error"]), "exceeds the limit") {
		t.Fatalf("minServers %d: status %d: %v", network.MaxServers+1, resp.StatusCode, out)
	}
	if resp, out := post(t, srv, "/v1/specs", specBody(t, "app", "billing")); resp.StatusCode != http.StatusOK {
		t.Fatalf("spec after rejection: status %d: %v", resp.StatusCode, out)
	}
}

// TestSpecDurableRestart proves the journal-before-acknowledge chain
// over a real restart: a spec posted and converged on a durable tenant
// recovers with identical generation bookkeeping from both the raw WAL
// (kill -9) and a composite snapshot (graceful shutdown).
func TestSpecDurableRestart(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		name := "wal-replay"
		if snapshot {
			name = "composite-snapshot"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			srv, st := durableServer(t, dir)
			mustOK(t, srv, http.MethodPost, "/v1/specs", specBody(t, "app", "wf-a", "wf-b"))
			mustOK(t, srv, http.MethodPost, "/v1/reconcile", `{"passes": 8}`)
			mustOK(t, srv, http.MethodPost, "/v1/specs", specBody(t, "app", "wf-a")) // converges only after restart
			before := specStatusOf(t, srv, "app")
			specsBefore := getBody(t, srv, "/v1/specs")
			if snapshot {
				if err := srv.Config.Handler.(*Handler).SnapshotNow(); err != nil {
					t.Fatal(err)
				}
			}
			srv.Close()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			srv2, st2 := durableServer(t, dir)
			defer srv2.Close()
			defer st2.Close()
			after := specStatusOf(t, srv2, "app")
			for _, k := range []string{"generation", "observedGeneration", "converged", "lag"} {
				if before[k] != after[k] {
					t.Fatalf("status %q diverged after restart: %v -> %v", k, before[k], after[k])
				}
			}
			if got := getBody(t, srv2, "/v1/specs"); got != specsBefore {
				t.Fatalf("spec list diverged after restart:\n got: %s\nwant: %s", got, specsBefore)
			}
			// The recovered reconciler picks up where the dead one left
			// off: the pending revision converges.
			mustOK(t, srv2, http.MethodPost, "/v1/reconcile", `{"passes": 8}`)
			if st := specStatusOf(t, srv2, "app"); st["converged"] != true {
				t.Fatalf("recovered reconciler did not converge: %v", st)
			}
		})
	}
}

// TestConvergedSpecUnderTargetStaysQuiet: a pass compares a spec's
// maxTimePenalty with the fleet's current Time Penalty. Deploy traffic,
// whose plans never touch the fleet, followed by a fleet that shrinks
// under the target must leave the converged spec quiet: no remap, no
// redeploy, and nothing journaled.
func TestConvergedSpecUnderTargetStaysQuiet(t *testing.T) {
	srv, st := durableServer(t, t.TempDir())
	defer srv.Close()
	defer st.Close()
	converge := func(body string) {
		t.Helper()
		mustOK(t, srv, http.MethodPost, "/v1/specs", body)
		if out := mustOK(t, srv, http.MethodPost, "/v1/reconcile", `{"passes": 16}`); out["converged"] != true {
			t.Fatalf("spec did not converge: %v", out)
		}
	}
	lastSeq := func() uint64 {
		t.Helper()
		var out struct {
			Store struct {
				LastSeq uint64 `json:"lastSeq"`
			} `json:"store"`
		}
		if err := json.Unmarshal([]byte(getBody(t, srv, "/v1/store/status")), &out); err != nil {
			t.Fatal(err)
		}
		return out.Store.LastSeq
	}

	converge(specBody(t, "app", "wf-a", "wf-b", "wf-c", "wf-d"))
	ws, n := deployPairs(t, 1)
	mustOK(t, srv, http.MethodPost, "/v1/deploy", deployBody(ws[0], n, 0))
	mustOK(t, srv, http.MethodPost, "/v1/reconcile", `{"passes": 1}`)
	converge(specBody(t, "app", "wf-a"))

	var fleet struct {
		TimePenalty float64 `json:"timePenalty"`
	}
	if err := json.Unmarshal([]byte(getBody(t, srv, "/v1/fleet/status")), &fleet); err != nil {
		t.Fatal(err)
	}
	if fleet.TimePenalty <= 0 {
		t.Fatalf("fleet penalty %v leaves no SLO to check", fleet.TimePenalty)
	}
	target := 1.1 * fleet.TimePenalty
	converge(strings.Replace(specBody(t, "app", "wf-a"), `"spec": {`,
		fmt.Sprintf(`"spec": {"maxTimePenalty": %g, `, target), 1))

	seq := lastSeq()
	for i := 0; i < 4; i++ {
		if out := mustOK(t, srv, http.MethodPost, "/v1/reconcile", `{"passes": 1}`); out["actions"] != nil {
			t.Fatalf("pass %d on a fleet at penalty %.4f under target %.4f acted: %v",
				i, fleet.TimePenalty, target, out["actions"])
		}
	}
	if got := lastSeq(); got != seq {
		t.Fatalf("quiet passes journaled %d records", got-seq)
	}
}

// TestHealthAndReadyEndpoints covers the probe surface: /v1/healthz is
// always live, /v1/readyz answers 503 until the daemon flips the gate.
func TestHealthAndReadyEndpoints(t *testing.T) {
	h, err := NewHandlerWith(Options{HoldReady: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	if body := getBody(t, srv, "/v1/healthz"); body == "" {
		t.Fatal("no healthz body")
	}
	resp, err := http.Get(srv.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("held readyz = %d, want 503", resp.StatusCode)
	}
	h.SetReady(true)
	if body := getBody(t, srv, "/v1/readyz"); body == "" {
		t.Fatal("no readyz body after SetReady")
	}

	// The default construction is born ready.
	plain := httptest.NewServer(NewHandler())
	defer plain.Close()
	if body := getBody(t, plain, "/v1/readyz"); body == "" {
		t.Fatal("default handler not ready")
	}
}
