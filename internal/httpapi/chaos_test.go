package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestChaosEndpointWithExplicitPlan(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	wf, nf := specPair(t)
	_, planned := post(t, srv, "/v1/deploy", fmt.Sprintf(`{"workflow": %s, "network": %s}`, wf, nf))
	mpJSON, err := json.Marshal(planned["mapping"])
	if err != nil {
		t.Fatal(err)
	}
	// Crash server 1 early and bring it back: the supervisor must keep
	// availability at 100%.
	body := fmt.Sprintf(`{
		"workflow": %s, "network": %s, "mapping": %s,
		"plan": {"seed": 7, "events": [
			{"time": 0.001, "kind": "server-crash", "server": 1},
			{"time": 0.5,   "kind": "server-rejoin", "server": 1}
		]},
		"episodes": 5, "seed": 3
	}`, wf, nf, mpJSON)
	resp, out := post(t, srv, "/v1/chaos", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["availability"].(float64) != 1 {
		t.Fatalf("availability = %v", out["availability"])
	}
	if out["lostOps"].(float64) != 0 {
		t.Fatalf("lost ops: %v", out["lostOps"])
	}
	incs, ok := out["firstIncidents"].([]any)
	if !ok || len(incs) != 2 {
		t.Fatalf("firstIncidents = %v", out["firstIncidents"])
	}
	first := incs[0].(map[string]any)
	if first["kind"].(string) != "server-crash" || first["action"].(string) == "" {
		t.Fatalf("first incident = %v", first)
	}
}

func TestChaosEndpointGeneratedPlan(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	wf, nf := specPair(t)
	_, planned := post(t, srv, "/v1/deploy", fmt.Sprintf(`{"workflow": %s, "network": %s}`, wf, nf))
	mpJSON, err := json.Marshal(planned["mapping"])
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"workflow": %s, "network": %s, "mapping": %s, "rate": 0.2, "episodes": 5, "seed": 3}`,
		wf, nf, mpJSON)
	resp, out := post(t, srv, "/v1/chaos", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["availability"].(float64) <= 0 {
		t.Fatalf("availability = %v", out["availability"])
	}
	if out["baselineMakespan"].(float64) <= 0 {
		t.Fatalf("baseline = %v", out["baselineMakespan"])
	}
}

func TestChaosEndpointNeedsPlanOrRate(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	wf, nf := specPair(t)
	body := fmt.Sprintf(`{"workflow": %s, "network": %s, "mapping": [0,0,0,0,0,0,0,0,0,0,0,0,0]}`, wf, nf)
	resp, _ := post(t, srv, "/v1/chaos", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestChaosEpisodesCap requires a 400 for one episode past the cap and
// a normal study on the same handler afterwards.
func TestChaosEpisodesCap(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	wf, nf := specPair(t)
	_, planned := post(t, srv, "/v1/deploy", fmt.Sprintf(`{"workflow": %s, "network": %s}`, wf, nf))
	mpJSON, err := json.Marshal(planned["mapping"])
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"workflow": %s, "network": %s, "mapping": %s, "rate": 0.2, "episodes": %d, "seed": 3}`,
		wf, nf, mpJSON, maxChaosEpisodes+1)
	if resp, out := post(t, srv, "/v1/chaos", body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("episodes %d: status %d: %v", maxChaosEpisodes+1, resp.StatusCode, out)
	}
	body = fmt.Sprintf(`{"workflow": %s, "network": %s, "mapping": %s, "rate": 0.2, "episodes": 2, "seed": 3}`, wf, nf, mpJSON)
	if resp, out := post(t, srv, "/v1/chaos", body); resp.StatusCode != http.StatusOK || out["episodes"] != float64(2) {
		t.Fatalf("chaos after rejection: status %d: %v", resp.StatusCode, out)
	}
}
