package httpapi

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"wsdeploy/internal/engine"
	"wsdeploy/internal/gen"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/wfio"
)

// depID matches the one field that tells two deploy responses apart.
var depID = regexp.MustCompile(`"id": "dep-[0-9]+"`)

// TestSharedInstancesStayUntouched has eight goroutines POST one deploy
// body 50 times each while a spec holding the same workflow and network
// bytes is posted and reconciled and a portfolio races the registry
// over them. Every request shares the table's instances, and every
// deploy the plan cache's one plan; under -race this is the audit that
// nothing writes to either. Afterwards the instances still equal a
// fresh reader decode, the cached plan's mapping and loads equal a
// freshly computed plan's bit for bit, every deploy answered the same
// bytes apart from its id, and /metrics shows that no request decoded.
func TestSharedInstancesStayUntouched(t *testing.T) {
	cfg := gen.ClassC()
	r := stats.NewRNG(20)
	w, err := cfg.LinearWorkflow(r, 20)
	if err != nil {
		t.Fatal(err)
	}
	w.Name = "shared-instances"
	n, err := cfg.BusNetworkWithSpeed(r, 5, 100*gen.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	n.Name = "shared-instances"
	var wbuf, nbuf bytes.Buffer
	if err := wfio.EncodeWorkflow(&wbuf, w); err != nil {
		t.Fatal(err)
	}
	if err := wfio.EncodeNetwork(&nbuf, n); err != nil {
		t.Fatal(err)
	}
	// The table keys the bytes of the JSON value, which the request
	// envelope delimits without the encoder's trailing newline.
	wraw, nraw := bytes.TrimSpace(wbuf.Bytes()), bytes.TrimSpace(nbuf.Bytes())
	deploy := fmt.Sprintf(`{"workflow": %s, "network": %s, "algorithm": "localsearch"}`, wraw, nraw)
	spec := fmt.Sprintf(`{"name": "shared", "spec": {"network": %s, "workflows": [{"id": "wf", "workflow": %s}]}}`, nraw, wraw)

	h := NewHandler()
	defer h.Close()
	srv := httptest.NewServer(h)
	defer srv.Close()
	mustOK(t, srv, http.MethodPost, "/v1/deploy", deploy) // plans once and keeps both instances
	hits := metricCounter(t, srv, "wfio_intern_hits")
	misses := metricCounter(t, srv, "wfio_intern_misses")

	const workers, perWorker = 8, 50
	responses := make([][]byte, workers*perWorker)
	errs := make(chan error, workers+1)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := http.Post(srv.URL+"/v1/deploy", "application/json", strings.NewReader(deploy))
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("deploy: status %d, %v: %s", resp.StatusCode, err, body)
					return
				}
				responses[g*perWorker+i] = body
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, call := range [][2]string{
			{"/v1/specs", spec},
			{"/v1/reconcile", `{"passes": 4}`},
			{"/v1/portfolio", fmt.Sprintf(`{"workflow": %s, "network": %s}`, wraw, nraw)},
		} {
			resp, err := http.Post(srv.URL+call[0], "application/json", strings.NewReader(call[1]))
			if err != nil {
				errs <- err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("POST %s: status %d: %s", call[0], resp.StatusCode, body)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if st := specStatusOf(t, srv, "shared"); st["converged"] != true {
		t.Fatalf("spec did not converge: %v", st)
	}
	want := depID.ReplaceAll(responses[0], nil)
	for i, body := range responses {
		if got := depID.ReplaceAll(body, nil); !bytes.Equal(got, want) {
			t.Fatalf("response %d differs apart from its id:\n%s\nvs\n%s", i, body, responses[0])
		}
	}
	if !bytes.Contains(want, []byte(`"cached": true`)) {
		t.Fatalf("deploys were not plan-cache hits:\n%s", want)
	}
	kw, err := wfio.Workflow(wraw)
	if err != nil {
		t.Fatal(err)
	}
	kn, err := wfio.Network(nraw)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := wfio.DecodeWorkflow(bytes.NewReader(wraw))
	if err != nil {
		t.Fatal(err)
	}
	fn, err := wfio.DecodeNetwork(bytes.NewReader(nraw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kw, fw) || !reflect.DeepEqual(kn, fn) {
		t.Fatal("a shared instance no longer equals a fresh reader decode")
	}
	// The ledger encodes every entry, each holding the cached plan.
	getBody(t, srv, "/v1/deployments")
	req := engine.Request{Workflow: kw, Network: kn, Algorithms: []string{"localsearch"}}
	cached, err := h.pipe.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := engine.New(engine.Options{CacheSize: -1}).Run(context.Background(), engine.Request{Workflow: fw, Network: fn, Algorithms: req.Algorithms})
	if err != nil {
		t.Fatal(err)
	}
	cp, fp := cached.Best, fresh.Best
	if !cp.FromCache {
		t.Fatal("the deploys' plan is no longer cached")
	}
	if !slices.Equal(cp.Mapping, fp.Mapping) || !sameBits(cp.Loads, fp.Loads) ||
		!sameBits([]float64{cp.ExecTime, cp.TimePenalty, cp.Combined, cp.Makespan}, []float64{fp.ExecTime, fp.TimePenalty, fp.Combined, fp.Makespan}) {
		t.Fatalf("the shared plan changed:\ncached %+v\nfresh  %+v", *cp, *fp)
	}
	// No request decoded, and neither did the two lookups above: they
	// returned the instances every request shared.
	if got := metricCounter(t, srv, "wfio_intern_misses"); got != misses {
		t.Fatalf("wfio.intern_misses moved %d -> %d: a request decoded", misses, got)
	}
	if got, want := metricCounter(t, srv, "wfio_intern_hits"), hits+2*workers*perWorker+4; got < want {
		t.Fatalf("wfio.intern_hits = %d, want at least %d", got, want)
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// maxRepeatDeployBytes bounds the heap one repeat cached deploy
// allocates, ~14.6 KB with the envelope decoded in place and the
// response encoded through pooled buffers; the daemon's GC target
// assumes that garbage stays small.
const maxRepeatDeployBytes = 20_000

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// one call of f allocates, after a warm-up call, with GOMAXPROCS at 1.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestRepeatDeployAllocs guards the saving: a cached deploy that
// repeats its instance bytes allocates at most a quarter as often as
// one whose workflow and network bytes are both new, and, outside a
// -race build, at most maxRepeatDeployBytes.
func TestRepeatDeployAllocs(t *testing.T) {
	const runs = 10
	h := NewHandler()
	defer h.Close()
	repeat := cachedDeployBodies(t, runs+2, false)
	fresh := cachedDeployBodies(t, runs+1, true)
	serveDeploy(t, h, repeat[runs+1]) // plans once, for both body sets
	allocs := func(bodies [][]byte) float64 {
		i := 0
		return testing.AllocsPerRun(runs, func() {
			serveDeploy(t, h, bodies[i])
			i++
		})
	}
	rep, fr := allocs(repeat), allocs(fresh)
	i := 0
	repBytes := bytesPerRun(runs, func() {
		serveDeploy(t, h, repeat[i%len(repeat)])
		i++
	})
	t.Logf("allocs per cached deploy: repeat %.0f, fresh %.0f; bytes per repeat deploy %.0f", rep, fr, repBytes)
	if rep > fr/4 {
		t.Fatalf("repeat-bytes deploy allocates %.0f times, more than a quarter of a fresh one's %.0f", rep, fr)
	}
	if repBytes > maxRepeatDeployBytes && !raceEnabled {
		t.Fatalf("repeat-bytes deploy allocates %.0f bytes, over %d", repBytes, maxRepeatDeployBytes)
	}
}
