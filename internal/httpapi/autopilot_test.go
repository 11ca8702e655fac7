package httpapi

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"wsdeploy/internal/network"
	"wsdeploy/internal/wfio"
)

// autopilotBody builds a small drift-study request: three dominant-op
// WDL workflows on a 4-server bus, skew traffic.
func autopilotBody(t *testing.T, enabled bool, extra string) string {
	t.Helper()
	n, err := network.NewBus("api", []float64{1e9, 1e9, 1e9, 3e9}, 1e8, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	var nbuf bytes.Buffer
	if err := wfio.EncodeNetwork(&nbuf, n); err != nil {
		t.Fatal(err)
	}
	classes := `[
		{"id": "wf-a", "workflowWdl": "workflow a op A 60M msg 4K op B 5M msg 4K op C 5M"},
		{"id": "wf-b", "workflowWdl": "workflow b op A 5M msg 4K op B 60M msg 4K op C 5M"},
		{"id": "wf-c", "workflowWdl": "workflow c op A 5M msg 4K op B 5M msg 4K op C 60M"}
	]`
	return fmt.Sprintf(`{
		"network": %s,
		"classes": %s,
		"traffic": {"rate": 6, "shape": "skew", "hotShare": 0.85, "horizon": 60, "seed": 9},
		"pilot": {"window": 5},
		"enabled": %v,
		"seed": 7%s
	}`, nbuf.String(), classes, enabled, extra)
}

// TestAutopilotCaps requires a 400 for the one-nanosecond window that
// once asked for 10¹¹ windows, for one window and for one arrival past
// the caps, and then a normal run on the same handler.
func TestAutopilotCaps(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	t.Cleanup(srv.Close)
	base := autopilotBody(t, false, "")
	for _, tc := range []struct {
		name, want string
		repl       []string // old, new pairs applied to the base body
	}{
		{"one-nanosecond window", "windows", []string{`"window": 5`, `"window": 1e-9`}},
		{"one window past the cap", "windows",
			[]string{`"rate": 6`, `"rate": 1`, `"horizon": 60`, `"horizon": 100001`, `"window": 5`, `"window": 1`}},
		{"one arrival past the cap", "arrivals",
			[]string{`"rate": 6`, `"rate": 1`, `"horizon": 60`, `"horizon": 1000001`, `"window": 5`, `"window": 100`}},
	} {
		body := strings.NewReplacer(tc.repl...).Replace(base)
		resp, out := do(t, http.MethodPost, srv.URL+"/v1/autopilot", body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(fmt.Sprint(out["error"]), tc.want) {
			t.Fatalf("%s: status %d: %v", tc.name, resp.StatusCode, out)
		}
	}
	resp, out := do(t, http.MethodPost, srv.URL+"/v1/autopilot", base)
	if resp.StatusCode != http.StatusOK || len(out["windows"].([]any)) != 12 {
		t.Fatalf("run after rejections: status %d: %v", resp.StatusCode, out)
	}
}

func TestAutopilotEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	t.Cleanup(srv.Close)

	// Disabled baseline: observes but never acts.
	resp, out := do(t, http.MethodPost, srv.URL+"/v1/autopilot", autopilotBody(t, false, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline status %d: %v", resp.StatusCode, out)
	}
	if out["migrations"].(float64) != 0 {
		t.Fatalf("baseline migrated: %v", out["migrations"])
	}
	basePenalty := out["tailPenalty"].(float64)
	if basePenalty <= 0 {
		t.Fatalf("baseline tailPenalty: %v", out)
	}
	if len(out["windows"].([]any)) != 12 {
		t.Fatalf("window count: %d", len(out["windows"].([]any)))
	}

	// Enabled: the ladder fires and the response carries the action log.
	resp, out = do(t, http.MethodPost, srv.URL+"/v1/autopilot", autopilotBody(t, true, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("enabled status %d: %v", resp.StatusCode, out)
	}
	if out["migrations"].(float64) == 0 || len(out["actions"].([]any)) == 0 {
		t.Fatalf("enabled run never acted: %v", out)
	}
	act := out["actions"].([]any)[0].(map[string]any)
	if act["level"].(string) == "" || act["moves"].(float64) <= 0 {
		t.Fatalf("malformed action: %v", act)
	}

	// GET reports defaults and retains the last run.
	resp, out = do(t, http.MethodGet, srv.URL+"/v1/autopilot", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
	def := out["defaults"].(map[string]any)
	if def["window"].(float64) != 5 || def["maxMoves"].(float64) != 4 {
		t.Fatalf("defaults: %v", def)
	}
	if out["lastRun"] == nil {
		t.Fatal("GET lost the last run")
	}
	if last := out["lastRun"].(map[string]any); last["enabled"] != true {
		t.Fatalf("lastRun should be the enabled run: %v", last["enabled"])
	}
}

// TestAutopilotEndpointFabricMatchesSim posts the same enabled study to
// both backends: the fabric response equals the simulator's in every
// field but "backend" — windows, actions, migrations and tail penalty
// included.
func TestAutopilotEndpointFabricMatchesSim(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up live fabric hosts")
	}
	srv := httptest.NewServer(NewHandler())
	t.Cleanup(srv.Close)

	resp, sim := do(t, http.MethodPost, srv.URL+"/v1/autopilot", autopilotBody(t, true, `, "backend": "sim"`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sim status %d: %v", resp.StatusCode, sim)
	}
	resp, fab := do(t, http.MethodPost, srv.URL+"/v1/autopilot", autopilotBody(t, true, `, "backend": "fabric", "timeScaleUs": 50`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fabric status %d: %v", resp.StatusCode, fab)
	}
	if sim["backend"] != "sim" || fab["backend"] != "fabric" {
		t.Fatalf("backend fields: sim %v, fabric %v", sim["backend"], fab["backend"])
	}
	if len(fab["actions"].([]any)) == 0 {
		t.Fatalf("fabric run never acted: %v", fab)
	}
	delete(sim, "backend")
	delete(fab, "backend")
	if !reflect.DeepEqual(sim, fab) {
		t.Fatalf("fabric response diverged from sim:\nsim:    %v\nfabric: %v", sim, fab)
	}
}

func TestAutopilotEndpointValidation(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	t.Cleanup(srv.Close)

	for name, body := range map[string]string{
		"no network":    `{"classes": [{"id": "x", "workflowWdl": "workflow x op A 1M"}]}`,
		"no classes":    `{"network": {"name": "n", "servers": [{"name": "s0", "powerHz": 1e9}]}}`,
		"unknown field": autopilotBody(t, true, `, "backend": "sim", "unknownField": 1`),
		"bad backend":   autopilotBody(t, true, `, "backend": "quantum"`),
		"settleDelay": strings.Replace(autopilotBody(t, true, ""),
			`"pilot": {"window": 5}`, `"pilot": {"window": 5, "settleDelay": 10}`, 1),
		"allowScale": strings.Replace(autopilotBody(t, true, ""),
			`"pilot": {"window": 5}`, `"pilot": {"window": 5, "allowScale": true}`, 1),
	} {
		resp, out := do(t, http.MethodPost, srv.URL+"/v1/autopilot", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, %v", name, resp.StatusCode, out)
		}
	}
}
