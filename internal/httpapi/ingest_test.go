package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsdeploy/internal/engine"
	"wsdeploy/internal/gen"
	"wsdeploy/internal/ingest"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/wfio"
)

// deployPairs returns k distinct workflows (as wfio JSON) over one
// shared 4-server bus.
func deployPairs(t *testing.T, k int) ([]string, string) {
	t.Helper()
	cfg := gen.ClassC()
	r := stats.NewRNG(17)
	n, err := cfg.BusNetworkWithSpeed(r, 4, 100*gen.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	var nbuf bytes.Buffer
	if err := wfio.EncodeNetwork(&nbuf, n); err != nil {
		t.Fatal(err)
	}
	ws := make([]string, k)
	for i := range ws {
		w, err := cfg.LinearWorkflow(r, 6+i%5)
		if err != nil {
			t.Fatal(err)
		}
		var wbuf bytes.Buffer
		if err := wfio.EncodeWorkflow(&wbuf, w); err != nil {
			t.Fatal(err)
		}
		ws[i] = wbuf.String()
	}
	return ws, nbuf.String()
}

func deployBody(wf, n string, seed int) string {
	return fmt.Sprintf(`{"workflow": %s, "network": %s, "algorithm": "localsearch", "seed": %d}`, wf, n, seed)
}

// TestBatchedDeployEquivalence is the plan equivalence guarantee: N
// workflows deployed concurrently, so the pipeline plans them side by
// side, must produce exactly the deployments that N sequential requests
// against a second handler produce, each planned alone — same mappings,
// same metrics, same winning algorithm. Run under -race this also exercises
// the full HTTP → ingest → engine path for data races.
func TestBatchedDeployEquivalence(t *testing.T) {
	const nReq = 12
	ws, n := deployPairs(t, nReq)

	batched := httptest.NewServer(NewHandler())
	defer batched.Close()
	sequential := httptest.NewServer(NewHandler())
	defer sequential.Close()

	// The batched deployments, issued concurrently. Seeds differ per
	// request on purpose: localsearch is deterministic, so the engine
	// canonicalizes them away and they must not change any result.
	got := make([]map[string]any, nReq)
	var wg sync.WaitGroup
	for i := 0; i < nReq; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, out := post(t, batched, "/v1/deploy", deployBody(ws[i], n, 1000+i))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("batched deploy %d = %d: %v", i, resp.StatusCode, out)
				return
			}
			got[i] = out
		}()
	}
	wg.Wait()

	for i := 0; i < nReq; i++ {
		resp, want := post(t, sequential, "/v1/deploy", deployBody(ws[i], n, 1000+i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sequential deploy %d = %d: %v", i, resp.StatusCode, want)
		}
		if got[i] == nil {
			t.Fatalf("no batched response for request %d", i)
		}
		// IDs are arrival-ordered (so they may differ across the two
		// servers) and the cached flag depends on which request planned
		// first; the planning outcome itself must be identical.
		for _, k := range []string{"id", "cached"} {
			delete(got[i], k)
			delete(want, k)
		}
		gj, _ := json.Marshal(got[i])
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("deploy %d diverged:\nbatched:    %s\nsequential: %s", i, gj, wj)
		}
	}
}

// gatedPlanner is the engine with every plan held at gate, so a test
// can keep a deploy in flight for as long as it needs.
type gatedPlanner struct {
	*engine.Engine
	gate    chan struct{}
	waiting atomic.Int32 // plans that have reached the gate
}

func (g *gatedPlanner) Run(ctx context.Context, req engine.Request) (*engine.Result, error) {
	g.waiting.Add(1)
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.Engine.Run(ctx, req)
}

// gatedHandler serves a handler with room for one plan in flight, whose
// plans run on a gated engine of its own and wait at gp's gate, so an
// admitted request keeps its slot.
func gatedHandler(t *testing.T) (*Handler, *gatedPlanner, *httptest.Server) {
	t.Helper()
	h := NewHandler()
	gp := &gatedPlanner{Engine: engine.New(engine.Options{}), gate: make(chan struct{})}
	h.pipe.Close()
	h.pipe = ingest.New(gp, ingest.Config{MaxQueue: 1})
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		h.Close()
	})
	return h, gp, srv
}

// waitUntil polls cond every millisecond for up to five seconds.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
	}
}

// TestDeployBackpressure: with the pipeline's single slot held by a
// deploy in flight, the next deploy sheds with 503 + Retry-After, the
// shed shows up in IngestStats, and the ingest.* series are visible at
// /metrics.
func TestDeployBackpressure(t *testing.T) {
	h, gp, srv := gatedHandler(t)
	ws, n := deployPairs(t, 1)
	body := deployBody(ws[0], n, 1)
	deploy := func() *http.Response {
		resp, err := http.Post(srv.URL+"/v1/deploy", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return nil
		}
		resp.Body.Close()
		return resp
	}
	admitted := make(chan int, 1)
	go func() {
		code := 0
		if resp := deploy(); resp != nil {
			code = resp.StatusCode
		}
		admitted <- code
	}()
	waitUntil(t, func() bool { return gp.waiting.Load() == 1 }) // the slot is held

	resp := deploy()
	if resp == nil {
		t.FailNow()
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deploy against a full pipeline = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
	close(gp.gate)
	if code := <-admitted; code != http.StatusOK {
		t.Fatalf("admitted deploy = %d, want 200", code)
	}
	if st := h.IngestStats(); st.Shed != 1 || st.Submitted != 1 {
		t.Fatalf("IngestStats shed/submitted = %d/%d, want 1/1", st.Shed, st.Submitted)
	}

	metrics := getBody(t, srv, "/metrics")
	for _, series := range []string{"ingest_shed_backlog", "ingest_submitted", "ingest_queue_depth"} {
		if !strings.Contains(metrics, series) {
			t.Fatalf("/metrics is missing %s:\n%s", series, metrics[:min(len(metrics), 2000)])
		}
	}
}

// TestPortfolioBackpressure: POST /v1/portfolio takes a slot of the
// same pipeline as POST /v1/deploy. With the single slot held by a
// deploy in flight it sheds with 503 + Retry-After, counted in
// IngestStats, and once the handler is closed it answers 503.
func TestPortfolioBackpressure(t *testing.T) {
	h, gp, srv := gatedHandler(t)
	ws, n := deployPairs(t, 1)
	admitted := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/deploy", "application/json", strings.NewReader(deployBody(ws[0], n, 1)))
		if err != nil {
			t.Error(err)
			admitted <- 0
			return
		}
		resp.Body.Close()
		admitted <- resp.StatusCode
	}()
	waitUntil(t, func() bool { return gp.waiting.Load() == 1 }) // the slot is held

	body := fmt.Sprintf(`{"workflow": %s, "network": %s, "algorithms": ["holm"]}`, ws[0], n)
	resp, out := post(t, srv, "/v1/portfolio", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("portfolio against a full pipeline = %d, want 503: %v", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
	if st := h.IngestStats(); st.Shed != 1 || st.Submitted != 1 {
		t.Fatalf("IngestStats shed/submitted = %d/%d, want 1/1", st.Shed, st.Submitted)
	}
	close(gp.gate)
	if code := <-admitted; code != http.StatusOK {
		t.Fatalf("admitted deploy = %d, want 200", code)
	}

	h.Close()
	resp, out = post(t, srv, "/v1/portfolio", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("portfolio after Close = %d, want 503: %v", resp.StatusCode, out)
	}
}

// TestDeployCancelFreesSlot: a deploy whose client gives up mid-plan
// stops its plan and frees its slot, so with room for one deploy in
// flight the next deploy is planned, not shed, and only it reaches the
// ledger.
func TestDeployCancelFreesSlot(t *testing.T) {
	h, gp, srv := gatedHandler(t)
	ws, n := deployPairs(t, 1)
	body := deployBody(ws[0], n, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/deploy", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	waitUntil(t, func() bool { return gp.waiting.Load() == 1 }) // the slot is held
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled deploy: err = %v, want context.Canceled", err)
	}
	waitUntil(t, func() bool { return h.IngestStats().Depth == 0 })

	close(gp.gate)
	resp, out := post(t, srv, "/v1/deploy", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy after the cancelled one = %d, want 200: %v", resp.StatusCode, out)
	}
	if st := h.IngestStats(); st.Submitted != 2 || st.Shed != 0 || st.Depth != 0 {
		t.Fatalf("IngestStats submitted/shed/depth = %d/%d/%d, want 2/0/0", st.Submitted, st.Shed, st.Depth)
	}
	if list := getBody(t, srv, "/v1/deployments"); strings.Count(list, `"id"`) != 1 {
		t.Fatalf("ledger after one cancelled and one planned deploy:\n%s", list)
	}
}

// deadlinePlanner is the engine with every plan held until its context
// ends, then returned as a best-so-far: truncated, with
// engine.ErrDeadline, after a short unwind — like a search stopped at
// its deadline.
type deadlinePlanner struct{ *engine.Engine }

func (d deadlinePlanner) Run(ctx context.Context, req engine.Request) (*engine.Result, error) {
	res, err := d.Engine.Run(context.Background(), req)
	if err != nil {
		return res, err
	}
	<-ctx.Done()
	time.Sleep(20 * time.Millisecond)
	res.Truncated = true
	return res, engine.ErrDeadline
}

// TestDeployDeadlineMidPlanReturnsTruncated: a deploy whose timeoutMs
// expires while it plans answers 200 with the best-so-far mapping,
// marked truncated, not 504.
func TestDeployDeadlineMidPlanReturnsTruncated(t *testing.T) {
	h := NewHandler()
	defer h.Close()
	h.pipe.Close()
	h.pipe = ingest.New(deadlinePlanner{engine.New(engine.Options{})}, ingest.Config{})
	srv := httptest.NewServer(h)
	defer srv.Close()

	ws, n := deployPairs(t, 1)
	body := fmt.Sprintf(`{"workflow": %s, "network": %s, "algorithm": "portfolio", "timeoutMs": 200}`, ws[0], n)
	resp, out := post(t, srv, "/v1/deploy", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy past its deadline = %d, want 200: %v", resp.StatusCode, out)
	}
	if out["truncated"] != true || len(out["mapping"].([]any)) == 0 {
		t.Fatalf("want a truncated best-so-far mapping: %v", out)
	}
}
