package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"wsdeploy/internal/store"
	"wsdeploy/internal/tenant"
)

// tenantServer serves a handler over a fresh multi-tenant registry.
func tenantServer(t *testing.T, cfg tenant.Config) *httptest.Server {
	t.Helper()
	reg, err := tenant.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	h, err := NewHandlerWith(Options{Tenants: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// doAs issues one request with the X-Tenant header set (empty name:
// no header, the default tenant).
func doAs(t *testing.T, name, method, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if name != "" {
		req.Header.Set(TenantHeader, name)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	_ = decodeInto(resp.Body, &out)
	return resp, out
}

func decodeInto(r io.Reader, v any) error {
	data, err := io.ReadAll(r)
	if err != nil || len(data) == 0 {
		return err
	}
	return json.Unmarshal(data, v)
}

// mustAs issues a tenant-scoped request and requires a 200.
func mustAs(t *testing.T, name string, srv *httptest.Server, method, path, body string) map[string]any {
	t.Helper()
	resp, out := doAs(t, name, method, srv.URL+path, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("[%s] %s %s = %d: %v", name, method, path, resp.StatusCode, out)
	}
	return out
}

// getAs fetches a tenant-scoped URL and returns the raw body.
func getAs(t *testing.T, name string, srv *httptest.Server, path string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if name != "" {
		req.Header.Set(TenantHeader, name)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("[%s] GET %s = %d", name, path, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestTenantCRUDAndScopedRouting(t *testing.T) {
	srv := tenantServer(t, tenant.Config{})
	wf, nf := specPair(t)

	resp, out := do(t, http.MethodPost, srv.URL+"/v1/tenants", `{"name": "acme"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create tenant = %d: %v", resp.StatusCode, out)
	}
	if out["name"] != "acme" {
		t.Fatalf("created tenant row = %v, want name acme", out)
	}
	if resp, out = do(t, http.MethodPost, srv.URL+"/v1/tenants", `{"name": "acme"}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create = %d: %v", resp.StatusCode, out)
	}
	if _, out = do(t, http.MethodGet, srv.URL+"/v1/tenants", ""); out["count"].(float64) != 2 {
		t.Fatalf("tenant directory: %v", out)
	}

	// Write to acme through the path prefix, read it back through the
	// header — both forms must address the same namespace.
	mustOK(t, srv, http.MethodPut, "/v1/fleet", `{"network": `+nf+`}`)
	mustOK(t, srv, http.MethodPut, "/v1/tenants/acme/fleet", `{"network": `+nf+`}`)
	mustOK(t, srv, http.MethodPost, "/v1/tenants/acme/fleet/workflows", `{"id": "only-acme", "workflow": `+wf+`}`)
	if out = mustAs(t, "acme", srv, http.MethodGet, "/v1/fleet/status", ""); out["workflows"].(float64) != 1 {
		t.Fatalf("acme fleet status: %v", out)
	}
	// The default tenant must not see acme's workflow.
	if out = mustOK(t, srv, http.MethodGet, "/v1/fleet/status", ""); out["workflows"].(float64) != 0 {
		t.Fatalf("default fleet leaked acme state: %v", out)
	}

	// Ledger isolation: one deploy as acme, none for default.
	mustAs(t, "acme", srv, http.MethodPost, "/v1/deploy", `{"workflow": `+wf+`, "network": `+nf+`}`)
	if out = mustAs(t, "acme", srv, http.MethodGet, "/v1/deployments", ""); out["count"].(float64) != 1 {
		t.Fatalf("acme ledger: %v", out)
	}
	if out = mustOK(t, srv, http.MethodGet, "/v1/deployments", ""); out["count"].(float64) != 0 {
		t.Fatalf("default ledger leaked acme deploys: %v", out)
	}

	// Tenant status rolls up the namespace.
	if _, out = do(t, http.MethodGet, srv.URL+"/v1/tenants/acme", ""); out["deployments"].(float64) != 1 {
		t.Fatalf("tenant status: %v", out)
	}

	// Delete; the namespace is gone while the default one is untouched.
	if resp, out = do(t, http.MethodDelete, srv.URL+"/v1/tenants/acme", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete tenant = %d: %v", resp.StatusCode, out)
	}
	if resp, _ = doAs(t, "acme", http.MethodGet, srv.URL+"/v1/fleet/status", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted tenant's route = %d, want 404", resp.StatusCode)
	}
	mustOK(t, srv, http.MethodGet, "/v1/fleet/status", "")
}

// TestTenantNegativeQuotaRejected: every limit check reads a negative
// quota as unlimited, so POST /v1/tenants answers 400 and creates
// nothing.
func TestTenantNegativeQuotaRejected(t *testing.T) {
	srv := tenantServer(t, tenant.Config{})
	resp, out := do(t, http.MethodPost, srv.URL+"/v1/tenants",
		`{"name": "neg", "quota": {"plansPerSec": -5, "maxWorkflows": -1, "maxServers": -3}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative quota = %d: %v, want 400", resp.StatusCode, out)
	}
	if resp, out = do(t, http.MethodGet, srv.URL+"/v1/tenants/neg", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("refused tenant = %d: %v, want 404", resp.StatusCode, out)
	}
}

// churn drives one tenant's full stateful surface: fleet lifecycle,
// planning with ledger commits, server churn, rebalances. The history
// is deterministic for a given (name, n), so two servers driving the
// same script must end in byte-identical state.
func churn(t *testing.T, srv *httptest.Server, name string, n int) {
	t.Helper()
	wf, nf := specPair(t)
	mustAs(t, name, srv, http.MethodPut, "/v1/fleet", `{"network": `+nf+`}`)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-wf-%d", name, i)
		mustAs(t, name, srv, http.MethodPost, "/v1/fleet/workflows", `{"id": "`+id+`", "workflow": `+wf+`}`)
		switch i % 3 {
		case 0:
			mustAs(t, name, srv, http.MethodPost, "/v1/deploy",
				`{"id": "`+id+`-plan", "workflow": `+wf+`, "network": `+nf+`}`)
		case 1:
			mustAs(t, name, srv, http.MethodPost, "/v1/fleet/servers",
				fmt.Sprintf(`{"name": "%s-s%d", "powerHz": 2e9}`, name, i))
		case 2:
			mustAs(t, name, srv, http.MethodPost, "/v1/fleet/rebalance", "")
		}
	}
	mustAs(t, name, srv, http.MethodPost, "/v1/autopilot", tenantAutopilotBody(nf, wf))
}

func tenantAutopilotBody(nf, wf string) string {
	return `{"network": ` + nf + `, "classes": [{"id": "c0", "workflow": ` + wf + `}],
	 "traffic": {"rate": 3, "horizon": 30, "seed": 11}, "enabled": true, "seed": 11}`
}

// TestTenantIsolationUnderChurn runs two tenants' scripted histories
// concurrently and requires each tenant's final state — fleet
// snapshot, deployment ledger, autopilot summary — to be byte-
// identical to a quiet reference server that ran only that tenant's
// script. Any cross-tenant leakage (a shared fleet, a ledger entry
// landing in the wrong namespace, detector state bleeding over) shows
// up as a diff; run under -race this also proves the namespaces share
// no unsynchronized state.
func TestTenantIsolationUnderChurn(t *testing.T) {
	srv := tenantServer(t, tenant.Config{})
	for _, name := range []string{"acme", "beta"} {
		if resp, out := do(t, http.MethodPost, srv.URL+"/v1/tenants", `{"name": "`+name+`"}`); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s = %d: %v", name, resp.StatusCode, out)
		}
	}

	sizes := map[string]int{"acme": 7, "beta": 10}
	var wg sync.WaitGroup
	for name, n := range sizes {
		wg.Add(1)
		go func(name string, n int) {
			defer wg.Done()
			churn(t, srv, name, n)
		}(name, n)
	}
	wg.Wait()

	for name, n := range sizes {
		ref := tenantServer(t, tenant.Config{})
		if resp, out := do(t, http.MethodPost, ref.URL+"/v1/tenants", `{"name": "`+name+`"}`); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create reference %s = %d: %v", name, resp.StatusCode, out)
		}
		churn(t, ref, name, n)
		for _, path := range []string{"/v1/fleet/snapshot", "/v1/fleet/status", "/v1/deployments", "/v1/autopilot"} {
			got, want := getAs(t, name, srv, path), getAs(t, name, ref, path)
			if got != want {
				t.Errorf("tenant %s: %s diverged from the isolated reference\n got: %s\nwant: %s", name, path, got, want)
			}
		}
	}
	// The default tenant stayed empty through all of it.
	if out := mustOK(t, srv, http.MethodGet, "/v1/deployments", ""); out["count"].(float64) != 0 {
		t.Fatalf("default ledger picked up churn traffic: %v", out)
	}
	if resp, _ := do(t, http.MethodGet, srv.URL+"/v1/fleet/status", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("default fleet exists without ever being created: %d", resp.StatusCode)
	}
}

// TestTenantQuota429NonInterference pins the acceptance criterion: a
// tenant pushed past its plans/sec quota is shed with 429 + Retry-After
// while another tenant's requests keep planning normally.
func TestTenantQuota429NonInterference(t *testing.T) {
	srv := tenantServer(t, tenant.Config{})
	wf, nf := specPair(t)
	if resp, out := do(t, http.MethodPost, srv.URL+"/v1/tenants",
		`{"name": "limited", "quota": {"plansPerSec": 0.001, "planBurst": 1}}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create limited = %d: %v", resp.StatusCode, out)
	}
	body := `{"workflow": ` + wf + `, "network": ` + nf + `}`

	mustAs(t, "limited", srv, http.MethodPost, "/v1/deploy", body)
	resp, out := doAs(t, "limited", http.MethodPost, srv.URL+"/v1/deploy", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota deploy = %d: %v", resp.StatusCode, out)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 without a useful Retry-After: %q", ra)
	}
	if s, _ := out["error"].(string); s == "" {
		t.Fatalf("429 lacks the JSON error envelope: %v", out)
	}

	// The open tenant is not degraded by its neighbor's rejection...
	for i := 0; i < 3; i++ {
		mustOK(t, srv, http.MethodPost, "/v1/deploy", body)
	}
	// ...and the limited tenant stays shed until its bucket refills.
	if resp, _ = doAs(t, "limited", http.MethodPost, srv.URL+"/v1/deploy", body); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("limited tenant recovered without a refill: %d", resp.StatusCode)
	}
}

// TestTenantsShareOnePlanner: every tenant plans on the handler's one
// engine, so an identical deploy by a second tenant is served from the
// plan the first one made — beta sees cached: true — while each
// tenant's ledger holds only its own deployment. The cache is keyed by
// request content, so sharing it leaks no tenant state; the price is
// that one tenant's cache churn can evict another tenant's plans.
func TestTenantsShareOnePlanner(t *testing.T) {
	srv := tenantServer(t, tenant.Config{})
	wf, nf := specPair(t)
	names := []string{"acme", "beta"}
	for _, name := range names {
		if resp, out := do(t, http.MethodPost, srv.URL+"/v1/tenants", `{"name": "`+name+`"}`); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s = %d: %v", name, resp.StatusCode, out)
		}
	}
	for i, name := range names {
		out := mustAs(t, name, srv, http.MethodPost, "/v1/deploy",
			`{"id": "`+name+`-plan", "workflow": `+wf+`, "network": `+nf+`}`)
		if cached := out["cached"] == true; cached != (i > 0) {
			t.Fatalf("%s deploy cached = %v, want %v: %v", name, cached, i > 0, out)
		}
	}
	for _, name := range names {
		out := mustAs(t, name, srv, http.MethodGet, "/v1/deployments", "")
		deps, _ := out["deployments"].([]any)
		if len(deps) != 1 || deps[0].(map[string]any)["id"] != name+"-plan" {
			t.Fatalf("%s ledger = %v, want only %s-plan", name, out, name)
		}
	}
}

// TestTenantCapacityCaps pins the fleet-size quotas: deploys beyond
// MaxWorkflows and joins beyond MaxServers shed with 503, and freeing
// capacity re-opens the tenant.
func TestTenantCapacityCaps(t *testing.T) {
	srv := tenantServer(t, tenant.Config{})
	wf, nf := specPair(t) // a 5-server bus
	if resp, out := do(t, http.MethodPost, srv.URL+"/v1/tenants",
		`{"name": "capped", "quota": {"maxWorkflows": 1, "maxServers": 6}}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create capped = %d: %v", resp.StatusCode, out)
	}
	mustAs(t, "capped", srv, http.MethodPut, "/v1/fleet", `{"network": `+nf+`}`)
	mustAs(t, "capped", srv, http.MethodPost, "/v1/fleet/workflows", `{"id": "first", "workflow": `+wf+`}`)
	resp, out := doAs(t, "capped", http.MethodPost, srv.URL+"/v1/fleet/workflows", `{"id": "second", "workflow": `+wf+`}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap workflow = %d: %v", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("over-cap 503 without Retry-After")
	}

	mustAs(t, "capped", srv, http.MethodPost, "/v1/fleet/servers", `{"name": "s6", "powerHz": 2e9}`)
	if resp, out = doAs(t, "capped", http.MethodPost, srv.URL+"/v1/fleet/servers", `{"name": "s7", "powerHz": 2e9}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap server join = %d: %v", resp.StatusCode, out)
	}

	// Retiring the workflow frees the slot.
	mustAs(t, "capped", srv, http.MethodDelete, "/v1/fleet/workflows/first", "")
	mustAs(t, "capped", srv, http.MethodPost, "/v1/fleet/workflows", `{"id": "second", "workflow": `+wf+`}`)
}

// TestTenantCapsOnEveryFleetPath holds a tenant's fleet caps on every
// path that gives it a fleet or grows one, not only on the two fleet
// endpoints TestTenantCapacityCaps covers: creating a fleet past the
// server cap, restoring a snapshot past either cap, and reconciling a
// spec past either cap. Each HTTP refusal is a 503 with Retry-After,
// counted in tenant.rejected_capacity; a reconcile pass records the
// refusal as an action error and does not converge.
func TestTenantCapsOnEveryFleetPath(t *testing.T) {
	srv := tenantServer(t, tenant.Config{})
	wf, nf := specPair(t) // a 5-server bus
	const n3 = `{"name": "n3", "servers": [{"name": "S1", "powerHz": 1e9}, {"name": "S2", "powerHz": 2e9}, {"name": "S3", "powerHz": 2e9}], "bus": {"speedBps": 1e8}}`
	const capped = `{"maxWorkflows": 1, "maxServers": 3}`
	for _, body := range []string{
		`{"name": "capped", "quota": ` + capped + `}`,
		`{"name": "wide", "quota": ` + capped + `}`,
		`{"name": "busy", "quota": ` + capped + `}`,
		`{"name": "open"}`,
	} {
		if resp, out := do(t, http.MethodPost, srv.URL+"/v1/tenants", body); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create tenant %s = %d: %v", body, resp.StatusCode, out)
		}
	}
	shed := func(what, path, body string) {
		t.Helper()
		before := metricCounter(t, srv, "tenant_rejected_capacity")
		resp, out := doAs(t, "capped", http.MethodPut, srv.URL+path, body)
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s = %d (Retry-After %q): %v", what, resp.StatusCode, resp.Header.Get("Retry-After"), out)
		}
		if got := metricCounter(t, srv, "tenant_rejected_capacity"); got != before+1 {
			t.Fatalf("%s: tenant.rejected_capacity %d -> %d, want one more", what, before, got)
		}
	}
	noFleet := func(name string) {
		t.Helper()
		if resp, out := doAs(t, name, http.MethodGet, srv.URL+"/v1/fleet/status", ""); resp.StatusCode != http.StatusConflict {
			t.Fatalf("[%s] a refused fleet was installed: status %d %v", name, resp.StatusCode, out)
		}
	}
	spec := func(name, network string, ids ...string) string {
		var wfs []string
		for _, id := range ids {
			wfs = append(wfs, `{"id": "`+id+`", "workflow": `+wf+`}`)
		}
		return `{"name": "` + name + `", "spec": {"network": ` + network + `, "workflows": [` + strings.Join(wfs, ",") + `]}}`
	}
	reconcile := func(name, want string) {
		t.Helper()
		out := mustAs(t, name, srv, http.MethodPost, "/v1/reconcile", `{"passes": 3}`)
		if actions := fmt.Sprint(out["actions"]); out["converged"] != false || !strings.Contains(actions, want) {
			t.Fatalf("[%s] reconcile past a cap: converged %v, actions %s; want an error naming %q", name, out["converged"], actions, want)
		}
	}

	// Create: the 5-server bus is past the cap of 3 servers.
	shed("PUT /v1/fleet past the server cap", "/v1/fleet", `{"network": `+nf+`}`)
	noFleet("capped")

	// Snapshot restore, of fleets built on the uncapped tenant: one on
	// five servers, one holding two workflows.
	mustAs(t, "open", srv, http.MethodPut, "/v1/fleet", `{"network": `+nf+`}`)
	wideSnap := getAs(t, "open", srv, "/v1/fleet/snapshot")
	mustAs(t, "open", srv, http.MethodPut, "/v1/fleet", `{"network": `+n3+`}`)
	for _, id := range []string{"a", "b"} {
		mustAs(t, "open", srv, http.MethodPost, "/v1/fleet/workflows", `{"id": "`+id+`", "workflow": `+wf+`}`)
	}
	busySnap := getAs(t, "open", srv, "/v1/fleet/snapshot")
	shed("PUT /v1/fleet/snapshot past the server cap", "/v1/fleet/snapshot", wideSnap)
	shed("PUT /v1/fleet/snapshot past the workflow cap", "/v1/fleet/snapshot", busySnap)
	noFleet("capped")

	// A spec on the 5-server bus cannot create its fleet.
	mustAs(t, "wide", srv, http.MethodPost, "/v1/specs", spec("app", nf, "wf-a"))
	reconcile("wide", "create-fleet moved=0 err=manager: over the fleet's cap of 3 servers")
	noFleet("wide")

	// A spec with three workflows deploys only the first.
	mustAs(t, "busy", srv, http.MethodPost, "/v1/specs", spec("app", n3, "wf-a", "wf-b", "wf-c"))
	reconcile("busy", "over the fleet's cap of 1 deployed workflows")
	st := mustAs(t, "busy", srv, http.MethodGet, "/v1/fleet/status", "")
	if st["servers"] != 3.0 || st["workflows"] != 1.0 {
		t.Fatalf("capped spec's fleet: %v servers, %v workflows; want 3 and 1", st["servers"], st["workflows"])
	}
}

// TestTenantDurableRecoveryIndependent restarts a durable multi-tenant
// daemon and requires every tenant to come back byte-identical from
// its own namespace: distinct fleets, ledgers and autopilot state per
// tenant, none of it mixed.
func TestTenantDurableRecoveryIndependent(t *testing.T) {
	dir := t.TempDir()
	cfg := tenant.Config{DataDir: dir, Store: store.Options{Sync: store.SyncNone}}
	open := func() (*httptest.Server, *tenant.Registry) {
		reg, err := tenant.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewHandlerWith(Options{Tenants: reg})
		if err != nil {
			t.Fatal(err)
		}
		return httptest.NewServer(h), reg
	}

	srv, reg := open()
	if resp, out := do(t, http.MethodPost, srv.URL+"/v1/tenants", `{"name": "acme"}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create acme = %d: %v", resp.StatusCode, out)
	}
	churn(t, srv, "", 4)     // default tenant, small history
	churn(t, srv, "acme", 6) // acme, different history
	before := map[string]map[string]string{}
	for _, name := range []string{"", "acme"} {
		before[name] = map[string]string{}
		for _, path := range []string{"/v1/fleet/snapshot", "/v1/deployments", "/v1/autopilot"} {
			before[name][path] = getAs(t, name, srv, path)
		}
	}
	srv.Close()
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, reg2 := open()
	defer srv2.Close()
	defer reg2.Close()
	// The handler took every tenant's recovery: none stays reachable
	// from the registry once restored.
	for _, tn := range reg2.List() {
		if rec := tn.TakeRecovery(); rec != nil {
			t.Errorf("tenant %s still holds its recovery after NewHandlerWith", tn.Name())
		}
	}
	for _, name := range []string{"", "acme"} {
		for path, want := range before[name] {
			if got := getAs(t, name, srv2, path); got != want {
				t.Errorf("tenant %q: %s not byte-identical after restart\n got: %s\nwant: %s", name, path, got, want)
			}
		}
	}
	// The recovered registry still routes and plans.
	wf, nf := specPair(t)
	mustAs(t, "acme", srv2, http.MethodPost, "/v1/deploy", `{"workflow": `+wf+`, "network": `+nf+`}`)
}
