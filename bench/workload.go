package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"wsdeploy/internal/cost"
	"wsdeploy/internal/gen"
	"wsdeploy/internal/network"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/wfio"
	"wsdeploy/internal/workflow"
)

// The four workloads. Each stresses a different layer, and each layer a
// later change may speed up has one workload that exercises it and one
// that bypasses it, so a gain on one and no change on the other can both
// be shown. Every request carries a unique seed (the client mix of the
// ingest study), and every input is drawn from the run's seed with the
// paper's Class C distributions.
var workloads = []*workload{
	{
		// Portfolio plans on 25-op workflows: nearly all daemon CPU is in
		// core (Sampling, Anneal); ingest and store are negligible.
		name: "deploy-portfolio",
		streams: []stream{
			{name: "portfolio", rate: 10, set: portfolioSet},
		},
		hits: func(hits, misses float64) error {
			if hits != 0 {
				return checkf("engine cache hits %v on unique-seed portfolio traffic, want 0", hits)
			}
			return nil
		},
	},
	{
		// Deterministic plans are canonicalized into cache hits, so the
		// cost is HTTP, JSON decode, cache keys, WAL fsync and snapshots
		// of a growing deployment ledger.
		name: "deploy-cached",
		streams: []stream{
			{name: "cached", rate: 200, set: cachedSet},
		},
		hits: func(hits, misses float64) error {
			if r := hits / (hits + misses); !(r >= 0.99) {
				return checkf("engine cache hit ratio %.4f (%v hits, %v misses), want >= 0.99", r, hits, misses)
			}
			return nil
		},
	},
	{
		// Cheap cached deploys queue behind portfolio plans in the same
		// ingest batch: head-of-line blocking.
		name: "deploy-mixed",
		streams: []stream{
			{name: "cached", rate: 54, set: cachedSet},
			{name: "portfolio", rate: 6, set: portfolioSet},
		},
	},
	{
		// Spec revisions reconciled to convergence beside status reads:
		// reconcile, manager and large WAL records; core barely used.
		name: "spec-churn",
		streams: []stream{
			{name: "revision", rate: 10, set: churnSet, op: writeSpec},
			{name: "read", rate: 30, op: readStatus},
		},
		setup: loadSpec,
	},
}

// workload is one named traffic mix.
type workload struct {
	name string
	// streams are the traffic classes; the first is the primary class
	// whose latency the p50/p95 metrics report.
	streams []stream
	// setup loads the server-side state the traffic needs into a freshly
	// started daemon; nil: none. The deploy workloads need none: their
	// warm-up fills the plan cache as any traffic would, and planning it
	// inside setup would tie setup time to the seed's instances.
	setup func(ctx context.Context, s *session) error
	// hits checks the engine's cache hits and misses over the open-loop
	// phase, confirming the workload exercises what it claims. Nil: no
	// claim about the cache.
	hits func(hits, misses float64) error
}

// stream is one traffic class of a workload.
type stream struct {
	name string
	rate float64 // open-loop arrivals per second
	// set is the planning instance behind the stream: what a deploy
	// stream deploys, and what the traced run's planner probes use. Nil
	// for a stream that plans nothing.
	set func(*inputs) *deploySet
	// op is the stream's operation; nil means deploy from set.
	op func(ctx context.Context, s *session, seq int) error
}

func (st stream) run(ctx context.Context, s *session, seq int) error {
	if st.op == nil {
		return s.deploy(ctx, st.set(s.in), seq)
	}
	return st.op(ctx, s, seq)
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, workloadNames())
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func (w *workload) rates() []float64 {
	out := make([]float64, len(w.streams))
	for i, s := range w.streams {
		out[i] = s.rate
	}
	return out
}

// checkError marks an operation whose response was wrong, as opposed to
// one that failed outright (transport error, non-200 status). A wrong
// output fails the whole run.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func checkf(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// deploySet is one family of deploy requests: workflow classes on one
// network, planned with one algorithm.
type deploySet struct {
	algorithm string
	n         *network.Network
	ws        []*workflow.Workflow // as the daemon decodes them
	models    []*cost.Model
	wfJSON    [][]byte
	netJSON   []byte
	// bodies are the request templates, one per class, missing their
	// closing brace so a seed can be appended without re-encoding.
	bodies [][]byte
}

// specSlots is how many workflows spec "app" holds; the rest of the
// churn set are replacements.
const specSlots = 12

// inputs is everything a run generates from its seed.
type inputs struct {
	portfolio, cached *deploySet
	// churn is spec-churn's workflow pool. Its algorithm is the deploy
	// endpoint's default, which the traced run's planner probes use to
	// stand in for the reconciler's placements.
	churn *deploySet
}

// newInputs draws every fixture from the seed: the BenchmarkPortfolio
// class (25-op Line–Bus workflows on a 5-server 100 Mbps bus), the
// ingest-study class (80–86-op workflows on a 12-server bus) and the
// spec-churn pool (48 workflows of 16 ops on an 8-server bus).
func newInputs(seed uint64) (*inputs, error) {
	cfg := gen.ClassC()
	r := stats.NewRNG(seed)
	portfolio, err := newDeploySet(cfg, r, "portfolio", []int{25, 25, 25, 25}, 5)
	if err != nil {
		return nil, err
	}
	cached, err := newDeploySet(cfg, r, "localsearch", []int{80, 82, 84, 86}, 12)
	if err != nil {
		return nil, err
	}
	pool := make([]int, 4*specSlots)
	for i := range pool {
		pool[i] = 16
	}
	churn, err := newDeploySet(cfg, r, "holm", pool, 8)
	if err != nil {
		return nil, err
	}
	return &inputs{portfolio: portfolio, cached: cached, churn: churn}, nil
}

func portfolioSet(in *inputs) *deploySet { return in.portfolio }
func cachedSet(in *inputs) *deploySet    { return in.cached }
func churnSet(in *inputs) *deploySet     { return in.churn }

func newDeploySet(cfg gen.Config, r *stats.RNG, algorithm string, ops []int, servers int) (*deploySet, error) {
	n, netJSON, err := drawNetwork(cfg, r, servers)
	if err != nil {
		return nil, err
	}
	set := &deploySet{algorithm: algorithm, n: n, netJSON: netJSON}
	for _, m := range ops {
		w, wj, err := drawWorkflow(cfg, r, m)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(map[string]any{
			"workflow":  json.RawMessage(wj),
			"network":   json.RawMessage(netJSON),
			"algorithm": algorithm,
		})
		if err != nil {
			return nil, err
		}
		set.ws = append(set.ws, w)
		set.models = append(set.models, cost.NewModel(w, n))
		set.wfJSON = append(set.wfJSON, wj)
		set.bodies = append(set.bodies, body[:len(body)-1])
	}
	return set, nil
}

// drawWorkflow draws a linear workflow and returns it as the daemon will
// decode it from its compact JSON, so client-side cost checks model
// exactly what the daemon plans.
func drawWorkflow(cfg gen.Config, r *stats.RNG, ops int) (*workflow.Workflow, []byte, error) {
	w, err := cfg.LinearWorkflow(r, ops)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := wfio.EncodeWorkflow(&buf, w); err != nil {
		return nil, nil, err
	}
	wj, err := compact(buf.Bytes())
	if err != nil {
		return nil, nil, err
	}
	w, err = wfio.DecodeWorkflow(bytes.NewReader(wj))
	return w, wj, err
}

func drawNetwork(cfg gen.Config, r *stats.RNG, servers int) (*network.Network, []byte, error) {
	n, err := cfg.BusNetworkWithSpeed(r, servers, 100*gen.Mbps)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := wfio.EncodeNetwork(&buf, n); err != nil {
		return nil, nil, err
	}
	nj, err := compact(buf.Bytes())
	if err != nil {
		return nil, nil, err
	}
	n, err = wfio.DecodeNetwork(bytes.NewReader(nj))
	return n, nj, err
}

func compact(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	err := json.Compact(&buf, b)
	return buf.Bytes(), err
}

// session is the client side of one daemon lifetime: the HTTP client and
// everything the daemon acknowledged, which the durability check later
// demands back.
type session struct {
	in    *inputs
	base  string
	cl    *http.Client
	seeds atomic.Uint64

	mu     sync.Mutex
	acked  map[string][]int // deploy id → mapping
	slots  []int            // churn pool index per spec slot
	ids    []string         // workflow id per spec slot
	revs   int              // spec revisions built
	maxGen uint64           // highest acknowledged spec generation
}

// newSession starts client state for one daemon. seedBase offsets the
// request seeds so every request a daemon sees carries a fresh one.
func newSession(in *inputs, base string, cl *http.Client, seedBase uint64) *session {
	s := &session{in: in, base: base, cl: cl, acked: map[string][]int{}}
	s.seeds.Store(seedBase)
	for i := 0; i < specSlots; i++ {
		s.slots = append(s.slots, i)
		s.ids = append(s.ids, fmt.Sprintf("w%d", i))
	}
	return s
}

// call sends one request and decodes a 200 response into out. Any other
// status is an operation failure; an undecodable 200 is a wrong output.
func (s *session) call(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.cl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return checkf("%s %s: undecodable response: %v", method, path, err)
		}
	}
	return nil
}

// deployResponse is the part of a POST /v1/deploy answer the checks read.
type deployResponse struct {
	ID      string `json:"id"`
	Mapping []int  `json:"mapping"`
	Metrics struct {
		Combined float64 `json:"combined"`
	} `json:"metrics"`
}

// deploy plans one request of the set, cycling through its classes, and
// checks the answer: one server index per operation, each in range, and
// a combined cost equal to the client's own evaluation of the mapping.
func (s *session) deploy(ctx context.Context, set *deploySet, seq int) error {
	class := seq % len(set.ws)
	body := fmt.Appendf(append([]byte(nil), set.bodies[class]...), `,"seed":%d}`, s.seeds.Add(1))
	var resp deployResponse
	if err := s.call(ctx, http.MethodPost, "/v1/deploy", body, &resp); err != nil {
		return err
	}
	w, n := set.ws[class], set.n
	if len(resp.Mapping) != w.M() {
		return checkf("deploy %s: mapping has %d entries for %d operations", resp.ID, len(resp.Mapping), w.M())
	}
	for op, srv := range resp.Mapping {
		if srv < 0 || srv >= n.N() {
			return checkf("deploy %s: operation %d on server %d of %d", resp.ID, op, srv, n.N())
		}
	}
	want := set.models[class].Combined(resp.Mapping)
	if !near(resp.Metrics.Combined, want, 1e-9) {
		return checkf("deploy %s: combined cost %v, client evaluates %v", resp.ID, resp.Metrics.Combined, want)
	}
	if resp.ID == "" {
		return checkf("deploy: acknowledged without an id")
	}
	s.mu.Lock()
	s.acked[resp.ID] = resp.Mapping
	s.mu.Unlock()
	return nil
}

// near reports whether a and b agree within a relative tolerance.
func near(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// loadFixture loads the workload's fixture into a freshly started daemon.
func (w *workload) loadFixture(ctx context.Context, s *session) error {
	if w.setup == nil {
		return nil
	}
	return w.setup(ctx, s)
}

// specBody builds the next revision of spec "app" (or the initial spec
// when replace is false): one slot's workflow is swapped for the next
// pool workflow under a fresh id, which the reconciler converges with
// one remove and one deploy.
func (s *session) specBody(replace bool) ([]byte, error) {
	c := s.in.churn
	s.mu.Lock()
	if replace {
		slot := s.revs % specSlots
		s.slots[slot] = specSlots + s.revs%(len(c.ws)-specSlots)
		s.ids[slot] = fmt.Sprintf("w%d-r%d", slot, s.revs)
		s.revs++
	}
	type wfSpec struct {
		ID       string          `json:"id"`
		Workflow json.RawMessage `json:"workflow"`
	}
	wfs := make([]wfSpec, specSlots)
	for i := range wfs {
		wfs[i] = wfSpec{ID: s.ids[i], Workflow: c.wfJSON[s.slots[i]]}
	}
	s.mu.Unlock()
	return json.Marshal(map[string]any{
		"name": "app",
		"spec": map[string]any{"network": json.RawMessage(c.netJSON), "workflows": wfs},
	})
}

// specStatus is a spec's convergence row.
type specStatus struct {
	Generation uint64 `json:"generation"`
	Observed   uint64 `json:"observedGeneration"`
	Converged  bool   `json:"converged"`
}

// putSpec posts a spec and reconciles until it converges, checking the
// convergence the reconciler reports.
func (s *session) putSpec(ctx context.Context, replace bool) error {
	body, err := s.specBody(replace)
	if err != nil {
		return err
	}
	var st specStatus
	if err := s.call(ctx, http.MethodPost, "/v1/specs", body, &st); err != nil {
		return err
	}
	if st.Generation == 0 {
		return checkf("spec accepted at generation 0")
	}
	var rec struct {
		Converged bool   `json:"converged"`
		Lag       uint64 `json:"lag"`
	}
	for try := 0; try < 4 && !rec.Converged; try++ {
		if err := s.call(ctx, http.MethodPost, "/v1/reconcile", []byte(`{"passes":16}`), &rec); err != nil {
			return err
		}
	}
	if !rec.Converged || rec.Lag != 0 {
		return checkf("spec generation %d: reconcile converged=%v lag=%d, want converged with observedGeneration == generation", st.Generation, rec.Converged, rec.Lag)
	}
	s.mu.Lock()
	s.maxGen = max(s.maxGen, st.Generation)
	s.mu.Unlock()
	return nil
}

func writeSpec(ctx context.Context, s *session, _ int) error { return s.putSpec(ctx, true) }

// loadSpec is spec-churn's fixture: the initial spec, converged.
func loadSpec(ctx context.Context, s *session) error { return s.putSpec(ctx, false) }

// readStatus alternates the two status reads spec-churn serves beside
// its writes, checking each against the fixture.
func readStatus(ctx context.Context, s *session, seq int) error {
	if seq%2 == 0 {
		var st struct {
			Servers   int `json:"servers"`
			Workflows int `json:"workflows"`
		}
		if err := s.call(ctx, http.MethodGet, "/v1/fleet/status", nil, &st); err != nil {
			return err
		}
		c := s.in.churn
		if st.Servers != c.n.N() || st.Workflows != specSlots {
			return checkf("fleet status: %d servers, %d workflows, want %d and %d", st.Servers, st.Workflows, c.n.N(), specSlots)
		}
		return nil
	}
	var st specStatus
	if err := s.call(ctx, http.MethodGet, "/v1/specs/app/status", nil, &st); err != nil {
		return err
	}
	if st.Generation == 0 || st.Observed > st.Generation {
		return checkf("spec status: generation %d, observed %d", st.Generation, st.Observed)
	}
	return nil
}

// verifyDurable checks a restarted daemon against everything the session
// saw acknowledged: every deploy with its mapping, and the spec at its
// last acknowledged generation, converged.
func (s *session) verifyDurable(ctx context.Context) error {
	var ledger struct {
		Deployments []struct {
			ID      string `json:"id"`
			Mapping []int  `json:"mapping"`
		} `json:"deployments"`
	}
	if err := s.call(ctx, http.MethodGet, "/v1/deployments", nil, &ledger); err != nil {
		return err
	}
	have := make(map[string][]int, len(ledger.Deployments))
	for _, d := range ledger.Deployments {
		have[d.ID] = d.Mapping
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, mp := range s.acked {
		got, ok := have[id]
		if !ok {
			return checkf("after kill -9: acknowledged deploy %s missing from the ledger", id)
		}
		if !equalInts(got, mp) {
			return checkf("after kill -9: deploy %s mapping %v, acknowledged %v", id, got, mp)
		}
	}
	if s.maxGen == 0 {
		return nil
	}
	var st specStatus
	if err := s.call(ctx, http.MethodGet, "/v1/specs/app/status", nil, &st); err != nil {
		return err
	}
	if st.Generation != s.maxGen || !st.Converged {
		return checkf("after kill -9: spec at generation %d (converged %v), acknowledged %d", st.Generation, st.Converged, s.maxGen)
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
