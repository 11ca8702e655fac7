package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"wsdeploy/internal/cost"
	"wsdeploy/internal/deploy"
	"wsdeploy/internal/wfio"
)

// TestDeployPortfolioAlgorithm deploys with algorithm "portfolio" and
// checks the winner is at least as good as a fixed registry algorithm.
func TestDeployPortfolioAlgorithm(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	wf, nf := specPair(t)

	resp, single := post(t, srv, "/v1/deploy", fmt.Sprintf(`{"workflow": %s, "network": %s, "algorithm": "fairload"}`, wf, nf))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fairload deploy: %d %v", resp.StatusCode, single)
	}
	resp, best := post(t, srv, "/v1/deploy", fmt.Sprintf(`{"workflow": %s, "network": %s, "algorithm": "portfolio", "seed": 3}`, wf, nf))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("portfolio deploy: %d %v", resp.StatusCode, best)
	}
	if len(best["mapping"].([]any)) != 15 {
		t.Fatalf("mapping: %v", best["mapping"])
	}
	bc := best["metrics"].(map[string]any)["combined"].(float64)
	sc := single["metrics"].(map[string]any)["combined"].(float64)
	if bc > sc {
		t.Fatalf("portfolio combined %.9f worse than fairload %.9f", bc, sc)
	}
}

// TestPortfolioEndpoint checks the leaderboard shape: sorted success rows
// first, inapplicable algorithms at the bottom with errors, best echoing
// the head row.
func TestPortfolioEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	wf, nf := specPair(t)
	resp, out := post(t, srv, "/v1/portfolio", fmt.Sprintf(`{"workflow": %s, "network": %s, "seed": 5}`, wf, nf))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	board := out["leaderboard"].([]any)
	if len(board) < 10 {
		t.Fatalf("leaderboard too small: %d rows", len(board))
	}
	head := board[0].(map[string]any)
	best := out["best"].(map[string]any)
	if head["algorithm"] != best["algorithm"] {
		t.Fatalf("head %v != best %v", head["algorithm"], best["algorithm"])
	}
	prev := 0.0
	seenErr := false
	for i, rowAny := range board {
		row := rowAny.(map[string]any)
		if row["error"] != nil && row["error"] != "" {
			seenErr = true
			continue
		}
		if seenErr {
			t.Fatalf("row %d: success after error rows", i)
		}
		c := row["metrics"].(map[string]any)["combined"].(float64)
		if c < prev {
			t.Fatalf("row %d: leaderboard unsorted (%.9f < %.9f)", i, c, prev)
		}
		prev = c
	}
	if !seenErr {
		t.Fatal("expected error rows for the line-family algorithms on a bus")
	}
	// A subset portfolio with an unknown key is a client error.
	resp, _ = post(t, srv, "/v1/portfolio", fmt.Sprintf(`{"workflow": %s, "network": %s, "algorithms": ["nope"]}`, wf, nf))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown algorithm: status %d", resp.StatusCode)
	}
}

// metricCounter reads one counter sample from the /metrics exposition.
func metricCounter(t *testing.T, srv *httptest.Server, name string) int64 {
	t.Helper()
	body := getBody(t, srv, "/metrics")
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s = %q: %v", name, v, err)
			}
			return n
		}
	}
	t.Fatalf("%s missing from /metrics", name)
	return 0
}

// TestDeployCacheHitObservable repeats an identical deploy and asserts
// the second answer comes from the plan cache, with the hit visible on
// the engine_cache_hits series at /metrics.
func TestDeployCacheHitObservable(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	wf, nf := specPair(t)
	body := fmt.Sprintf(`{"workflow": %s, "network": %s, "algorithm": "flmme", "seed": 9}`, wf, nf)

	resp, first := post(t, srv, "/v1/deploy", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first deploy: %d %v", resp.StatusCode, first)
	}
	if first["cached"] == true {
		t.Fatal("first deploy unexpectedly cached")
	}
	hitsBefore := metricCounter(t, srv, "engine_cache_hits")

	resp, second := post(t, srv, "/v1/deploy", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second deploy: %d %v", resp.StatusCode, second)
	}
	if second["cached"] != true {
		t.Fatalf("second deploy not served from cache: %v", second)
	}
	if got := metricCounter(t, srv, "engine_cache_hits"); got != hitsBefore+1 {
		t.Fatalf("engine.cache_hits = %d, want %d", got, hitsBefore+1)
	}
	if fmt.Sprint(second["mapping"]) != fmt.Sprint(first["mapping"]) {
		t.Fatalf("cached mapping differs: %v vs %v", second["mapping"], first["mapping"])
	}
}

// TestConcurrentPlanning hammers /v1/deploy and /v1/portfolio from many
// goroutines — run under -race this is the engine's concurrency audit.
func TestConcurrentPlanning(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	wf, nf := specPair(t)

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients*4)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				// Vary the seed so some requests hit the cache and others miss.
				body := fmt.Sprintf(`{"workflow": %s, "network": %s, "algorithm": "portfolio", "seed": %d}`, wf, nf, c%3)
				resp, out := post(t, srv, "/v1/deploy", body)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("deploy %d/%d: status %d: %v", c, i, resp.StatusCode, out)
					return
				}
				body = fmt.Sprintf(`{"workflow": %s, "network": %s, "seed": %d}`, wf, nf, c%3)
				resp, out = post(t, srv, "/v1/portfolio", body)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("portfolio %d/%d: status %d: %v", c, i, resp.StatusCode, out)
					return
				}
				if out["best"] == nil {
					errs <- fmt.Errorf("portfolio %d/%d: no best", c, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDeployTimeoutReturnsTruncated bounds a deploy at 1 ms: the answer
// must arrive (possibly truncated or as a timeout status), never hang.
func TestDeployTimeoutReturnsTruncated(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	wf, nf := specPair(t)
	body := fmt.Sprintf(`{"workflow": %s, "network": %s, "algorithm": "portfolio", "timeoutMs": 1, "seed": 77}`, wf, nf)
	resp, out := post(t, srv, "/v1/deploy", body)
	switch resp.StatusCode {
	case http.StatusOK:
		if len(out["mapping"].([]any)) != 15 {
			t.Fatalf("mapping: %v", out["mapping"])
		}
	case http.StatusGatewayTimeout:
		// Nothing finished within 1 ms on this machine; also fine.
	default:
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
}

// TestPlanMetricsMatchModel: the metrics a plan reports are the
// engine's, and must equal what a cost model built by hand reports for
// the returned mapping, bit for bit — on a miss and on a cache hit, for
// a single-algorithm deploy, a portfolio deploy and every
// /v1/portfolio row with a mapping.
func TestPlanMetricsMatchModel(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	wf, nf := specPair(t)
	w, err := wfio.Workflow([]byte(wf))
	if err != nil {
		t.Fatal(err)
	}
	n, err := wfio.Network([]byte(nf))
	if err != nil {
		t.Fatal(err)
	}
	model := cost.NewModel(w, n)
	check := func(what string, mp []int, got Metrics) {
		t.Helper()
		res := model.Evaluate(deploy.Mapping(mp))
		want := []float64{res.ExecTime, res.TimePenalty, res.Combined, model.MakespanEstimate(deploy.Mapping(mp))}
		want = append(want, res.Loads...)
		have := append([]float64{got.ExecTime, got.TimePenalty, got.Combined, got.Makespan}, got.Loads...)
		if len(have) != len(want) {
			t.Fatalf("%s: %d loads, want %d", what, len(got.Loads), len(res.Loads))
		}
		for i := range want {
			if math.Float64bits(have[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: metrics %v, want %v", what, have, want)
			}
		}
	}
	call := func(path, body string, out any) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d: %s", path, resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatal(err)
		}
	}
	for _, algo := range []string{"fltr", PortfolioAlgorithm} {
		body := fmt.Sprintf(`{"workflow": %s, "network": %s, "algorithm": %q, "seed": 4}`, wf, nf, algo)
		for i, cached := range []bool{false, true} {
			var out deployResponse
			call("/v1/deploy", body, &out)
			if out.Cached != cached {
				t.Fatalf("deploy %s #%d: cached %v, want %v", algo, i+1, out.Cached, cached)
			}
			check(fmt.Sprintf("deploy %s #%d", algo, i+1), out.Mapping, out.Metrics)
		}
	}
	// A new seed: the portfolio deploy above already planned seed 4.
	body := fmt.Sprintf(`{"workflow": %s, "network": %s, "seed": 5}`, wf, nf)
	for i, cached := range []bool{false, true} {
		var out struct {
			Leaderboard []portfolioRow  `json:"leaderboard"`
			Best        *deployResponse `json:"best"`
		}
		call("/v1/portfolio", body, &out)
		rows := 0
		for _, row := range out.Leaderboard {
			if row.Mapping == nil {
				continue
			}
			rows++
			if row.Cached != cached {
				t.Fatalf("portfolio #%d row %s: cached %v, want %v", i+1, row.Key, row.Cached, cached)
			}
			check(fmt.Sprintf("portfolio #%d row %s", i+1, row.Key), row.Mapping, *row.Metrics)
		}
		if rows < 10 || out.Best == nil {
			t.Fatalf("portfolio #%d: %d rows with a mapping, best %v", i+1, rows, out.Best)
		}
		check(fmt.Sprintf("portfolio #%d best", i+1), out.Best.Mapping, out.Best.Metrics)
	}
}
