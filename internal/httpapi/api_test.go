package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wsdeploy/internal/gen"
	"wsdeploy/internal/network"
	"wsdeploy/internal/wfio"
)

// specPair returns the Fig. 1 workflow and a 5-server bus as raw JSON.
func specPair(t *testing.T) (string, string) {
	t.Helper()
	var wbuf, nbuf bytes.Buffer
	if err := wfio.EncodeWorkflow(&wbuf, gen.MotivatingExample()); err != nil {
		t.Fatal(err)
	}
	n, err := network.NewBus("b", []float64{1e9, 2e9, 2e9, 3e9, 1e9}, 1e8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := wfio.EncodeNetwork(&nbuf, n); err != nil {
		t.Fatal(err)
	}
	return wbuf.String(), nbuf.String()
}

func post(t *testing.T, srv *httptest.Server, path, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestAlgorithmsEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Algorithms []string `json:"algorithms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Algorithms) < 10 {
		t.Fatalf("registry too small: %v", out.Algorithms)
	}
}

func TestDeployEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	wf, nf := specPair(t)
	body := fmt.Sprintf(`{"workflow": %s, "network": %s, "algorithm": "holm"}`, wf, nf)
	resp, out := post(t, srv, "/v1/deploy", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["algorithm"] != "HeavyOps-LargeMsgs" {
		t.Fatalf("algorithm = %v", out["algorithm"])
	}
	mapping := out["mapping"].([]any)
	if len(mapping) != 15 {
		t.Fatalf("mapping size = %d", len(mapping))
	}
	metrics := out["metrics"].(map[string]any)
	if metrics["execTime"].(float64) <= 0 || metrics["makespanEstimate"].(float64) <= 0 {
		t.Fatalf("metrics: %v", metrics)
	}
	loads := metrics["loads"].([]any)
	if len(loads) != 5 {
		t.Fatalf("loads: %v", loads)
	}
}

func TestDeployDefaultsToHOLM(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	wf, nf := specPair(t)
	resp, out := post(t, srv, "/v1/deploy", fmt.Sprintf(`{"workflow": %s, "network": %s}`, wf, nf))
	if resp.StatusCode != http.StatusOK || out["algorithm"] != "HeavyOps-LargeMsgs" {
		t.Fatalf("default algo: %d %v", resp.StatusCode, out["algorithm"])
	}
}

func TestDeployErrors(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	wf, nf := specPair(t)
	cases := []struct {
		name string
		body string
		code int
	}{
		{"garbage", "{", http.StatusBadRequest},
		{"unknown field", `{"bogus": 1}`, http.StatusBadRequest},
		{"missing network", fmt.Sprintf(`{"workflow": %s}`, wf), http.StatusBadRequest},
		{"unknown algorithm", fmt.Sprintf(`{"workflow": %s, "network": %s, "algorithm": "nope"}`, wf, nf), http.StatusBadRequest},
		{"inapplicable algorithm", fmt.Sprintf(`{"workflow": %s, "network": %s, "algorithm": "lineline"}`, wf, nf), http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, out := post(t, srv, "/v1/deploy", tc.body)
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d, want %d: %v", resp.StatusCode, tc.code, out)
			}
			if out["error"] == "" {
				t.Fatal("no error message")
			}
		})
	}
}

func TestDeployConstraintViolation(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	wf, nf := specPair(t)
	body := fmt.Sprintf(`{"workflow": %s, "network": %s, "maxExecTime": 1e-9}`, wf, nf)
	resp, out := post(t, srv, "/v1/deploy", body)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if !strings.Contains(out["error"].(string), "MaxExecTime") {
		t.Fatalf("error: %v", out["error"])
	}
}

// TestPortfolioRacesRegistry: with no algorithms, /v1/portfolio reports
// one row per registry algorithm, and the inapplicable ones carry an
// error. POST /v1/compare, which served the same rows, answers 404.
func TestPortfolioRacesRegistry(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	wf, nf := specPair(t)
	body := fmt.Sprintf(`{"workflow": %s, "network": %s, "seed": 3}`, wf, nf)
	if resp, _ := do(t, http.MethodPost, srv.URL+"/v1/compare", body); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/compare = %d, want 404", resp.StatusCode)
	}
	resp, out := post(t, srv, "/v1/portfolio", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	rows := out["leaderboard"].([]any)
	if len(rows) < 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	okCount, errCount := 0, 0
	for _, raw := range rows {
		row := raw.(map[string]any)
		if row["error"] != nil {
			errCount++ // LineLine family and Exhaustive skip this config
		} else {
			okCount++
			if row["metrics"].(map[string]any)["combined"].(float64) <= 0 {
				t.Fatalf("bad metrics in %v", row)
			}
		}
	}
	if okCount < 8 || errCount < 2 {
		t.Fatalf("ok=%d err=%d", okCount, errCount)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	wf, nf := specPair(t)
	// First plan a mapping, then simulate it.
	_, planned := post(t, srv, "/v1/deploy", fmt.Sprintf(`{"workflow": %s, "network": %s}`, wf, nf))
	mpJSON, err := json.Marshal(planned["mapping"])
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"workflow": %s, "network": %s, "mapping": %s, "runs": 100, "seed": 1}`, wf, nf, mpJSON)
	resp, out := post(t, srv, "/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["runs"].(float64) != 100 || out["makespanMean"].(float64) <= 0 {
		t.Fatalf("sim response: %v", out)
	}
}

func TestSimulateRejectsBadMapping(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	wf, nf := specPair(t)
	body := fmt.Sprintf(`{"workflow": %s, "network": %s, "mapping": [0, 1], "runs": 10}`, wf, nf)
	resp, _ := post(t, srv, "/v1/simulate", body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestSimulateRunsCap sends run counts past the cap, among them the one
// that once made sim.Simulate exhaust memory and kill the process, and
// requires a 400 for each, then a normal simulation on the same handler.
func TestSimulateRunsCap(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	wf, nf := specPair(t)
	_, planned := post(t, srv, "/v1/deploy", fmt.Sprintf(`{"workflow": %s, "network": %s}`, wf, nf))
	mpJSON, err := json.Marshal(planned["mapping"])
	if err != nil {
		t.Fatal(err)
	}
	for _, runs := range []int64{maxSimulateRuns + 1, 1 << 40} {
		body := fmt.Sprintf(`{"workflow": %s, "network": %s, "mapping": %s, "runs": %d}`, wf, nf, mpJSON, runs)
		if resp, out := post(t, srv, "/v1/simulate", body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("runs %d: status %d: %v", runs, resp.StatusCode, out)
		}
	}
	body := fmt.Sprintf(`{"workflow": %s, "network": %s, "mapping": %s, "runs": 10}`, wf, nf, mpJSON)
	if resp, out := post(t, srv, "/v1/simulate", body); resp.StatusCode != http.StatusOK || out["runs"] != float64(10) {
		t.Fatalf("simulate after rejections: status %d: %v", resp.StatusCode, out)
	}
}

// TestDeployServerCap: a deploy naming a 2,000-server bus, which once
// took minutes and hundreds of megabytes of routing tables, answers 400
// within a second, and a normal deploy on the same handler succeeds.
func TestDeployServerCap(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	wf, nf := specPair(t)
	var servers strings.Builder
	for i := 0; i < 2000; i++ {
		if i > 0 {
			servers.WriteByte(',')
		}
		fmt.Fprintf(&servers, `{"name": "S%d", "powerHz": 1e9}`, i+1)
	}
	big := fmt.Sprintf(`{"name": "big", "servers": [%s], "bus": {"speedBps": 1e8}}`, servers.String())

	start := time.Now()
	resp, out := post(t, srv, "/v1/deploy", fmt.Sprintf(`{"workflow": %s, "network": %s}`, wf, big))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(fmt.Sprint(out["error"]), "exceeds the limit") {
		t.Fatalf("2,000-server deploy: status %d: %v", resp.StatusCode, out)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("2,000-server deploy took %v to reject, want under 1s", elapsed)
	}
	if resp, out := post(t, srv, "/v1/deploy", fmt.Sprintf(`{"workflow": %s, "network": %s}`, wf, nf)); resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy after rejection: status %d: %v", resp.StatusCode, out)
	}
}

func TestFailoverEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	wf, nf := specPair(t)
	_, planned := post(t, srv, "/v1/deploy", fmt.Sprintf(`{"workflow": %s, "network": %s}`, wf, nf))
	mpJSON, err := json.Marshal(planned["mapping"])
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"repair", "redeploy", ""} {
		body := fmt.Sprintf(`{"workflow": %s, "network": %s, "mapping": %s, "failed": 1, "mode": %q}`, wf, nf, mpJSON, mode)
		resp, out := post(t, srv, "/v1/failover", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mode %q status %d: %v", mode, resp.StatusCode, out)
		}
		if out["survivors"].(float64) != 4 {
			t.Fatalf("survivors: %v", out["survivors"])
		}
		if len(out["mapping"].([]any)) != 15 {
			t.Fatalf("mapping size wrong: %v", out["mapping"])
		}
	}
	// Unknown mode.
	body := fmt.Sprintf(`{"workflow": %s, "network": %s, "mapping": %s, "failed": 1, "mode": "panic"}`, wf, nf, mpJSON)
	resp, _ := post(t, srv, "/v1/failover", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown mode status %d", resp.StatusCode)
	}
}

func TestMethodRouting(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/deploy")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/deploy status = %d", resp.StatusCode)
	}
}
