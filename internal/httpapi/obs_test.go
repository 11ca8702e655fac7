package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"wsdeploy/internal/gen"
	"wsdeploy/internal/network"
	"wsdeploy/internal/obs"
	"wsdeploy/internal/wfio"

	"bytes"
)

// TestMetricsEndpoint checks that a planning request shows up on the
// Prometheus exposition: the engine counters and the request histogram
// share the one obs registry, and /metrics is the only exposition path.
func TestMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()

	var wbuf, nbuf bytes.Buffer
	if err := wfio.EncodeWorkflow(&wbuf, gen.MotivatingExample()); err != nil {
		t.Fatal(err)
	}
	n, err := network.NewBus("b", []float64{1e9, 2e9}, 1e8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := wfio.EncodeNetwork(&nbuf, n); err != nil {
		t.Fatal(err)
	}
	resp, out := do(t, http.MethodPost, srv.URL+"/v1/deploy",
		fmt.Sprintf(`{"workflow": %s, "network": %s, "algorithm": "fairload"}`, wbuf.String(), nbuf.String()))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy status %d: %v", resp.StatusCode, out)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"engine_plans_started",
		"engine_plan_latency_fairload_count",
		"httpapi_request_seconds_count",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if resp, _ := do(t, http.MethodGet, srv.URL+"/debug/vars", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /debug/vars = %d, want 404", resp.StatusCode)
	}
}

// TestMetricsHeapSeries scrapes the runtime's heap series, which are
// read when /metrics is served: after a GC the live heap and the heap
// goal are positive, the goal is above the live heap, and the GC count
// has reached the cycles the test process has run.
func TestMetricsHeapSeries(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	body := getBody(t, srv, "/metrics")
	got := map[string]float64{}
	for _, name := range []string{"go_heap_live_bytes", "go_heap_goal_bytes", "go_gc_cycles"} {
		for _, line := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("%s = %q: %v", name, v, err)
				}
				got[name] = f
			}
		}
		if _, ok := got[name]; !ok {
			t.Fatalf("%s missing from /metrics:\n%s", name, body)
		}
	}
	if live, goal := got["go_heap_live_bytes"], got["go_heap_goal_bytes"]; live <= 0 || goal <= live {
		t.Errorf("go_heap_live_bytes %g, go_heap_goal_bytes %g: want 0 < live < goal", live, goal)
	}
	if cycles := got["go_gc_cycles"]; cycles < float64(ms.NumGC) {
		t.Errorf("go_gc_cycles %g, want at least the %d cycles run", cycles, ms.NumGC)
	}
}

// TestDebugTraceEndpoint checks that planning requests leave spans in
// the handler's flight recorder, served on /debug/trace.
func TestDebugTraceEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()

	var wbuf, nbuf bytes.Buffer
	if err := wfio.EncodeWorkflow(&wbuf, gen.MotivatingExample()); err != nil {
		t.Fatal(err)
	}
	n, err := network.NewBus("b", []float64{1e9, 2e9}, 1e8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := wfio.EncodeNetwork(&nbuf, n); err != nil {
		t.Fatal(err)
	}
	resp, out := do(t, http.MethodPost, srv.URL+"/v1/deploy",
		fmt.Sprintf(`{"workflow": %s, "network": %s, "algorithm": "fairload"}`, wbuf.String(), nbuf.String()))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy status %d: %v", resp.StatusCode, out)
	}

	tresp, err := http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var trace struct {
		Total uint64 `json:"total"`
		Spans []struct {
			Name   string `json:"name"`
			Parent uint64 `json:"parent"`
			ID     uint64 `json:"id"`
		} `json:"spans"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&trace); err != nil {
		t.Fatal(err)
	}
	if trace.Total == 0 {
		t.Fatal("no spans recorded")
	}
	names := map[string]int{}
	for _, sp := range trace.Spans {
		names[sp.Name]++
	}
	if names["http.request"] == 0 {
		t.Errorf("no http.request span: %v", names)
	}
	if names["engine.run"] == 0 || names["engine.plan"] == 0 {
		t.Errorf("engine spans missing: %v", names)
	}
}

// TestDurableStoreSpansOnDebugTrace: tenant stores trace into the
// handler's flight recorder, the recovered default tenant's and a
// tenant created over the API alike. /debug/trace then shows each
// deploy's journal append and the snapshot after them, with its size.
func TestDurableStoreSpansOnDebugTrace(t *testing.T) {
	srv, st := durableServer(t, t.TempDir())
	defer srv.Close()
	defer st.Close()
	if resp, out := do(t, http.MethodPost, srv.URL+"/v1/tenants", `{"name": "acme"}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create tenant: %d %v", resp.StatusCode, out)
	}
	wf, n := specPair(t)
	for _, name := range []string{"", "acme"} {
		resp, out := doAs(t, name, http.MethodPost, srv.URL+"/v1/deploy", `{"workflow": `+wf+`, "network": `+n+`, "algorithm": "holm"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("deploy as %q: %d %v", name, resp.StatusCode, out)
		}
	}
	if err := srv.Config.Handler.(*Handler).SnapshotNow(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var trace struct {
		Spans []obs.SpanRecord `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatal(err)
	}
	appends, snapshots := 0, 0
	for _, sp := range trace.Spans {
		switch sp.Name {
		case "store.append":
			if typ, _ := sp.Attr("type"); typ == recDeploymentCreated {
				appends++
			}
		case "store.snapshot":
			if b, ok := sp.Attr("bytes"); !ok || b == "0" {
				t.Errorf("store.snapshot span has bytes %q", b)
			}
			snapshots++
		}
	}
	if appends != 2 || snapshots != 2 {
		t.Fatalf("/debug/trace holds %d deployment store.append and %d store.snapshot spans, want 2 and 2", appends, snapshots)
	}
}
