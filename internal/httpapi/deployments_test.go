package httpapi

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"wsdeploy/internal/stats"
)

// sharesPlan reports whether b points at a's mapping and load vector.
func sharesPlan(a, b deployEntry) (mapping, loads bool) {
	return &a.Mapping[0] == &b.Mapping[0], &a.Metrics.Loads[0] == &b.Metrics.Loads[0]
}

// requireShared fails unless b points at both of a's plan slices.
func requireShared(t *testing.T, a, b deployEntry) {
	t.Helper()
	if m, l := sharesPlan(a, b); !m || !l {
		t.Fatalf("%s does not share %s's plan: mapping %v, loads %v", b.ID, a.ID, m, l)
	}
}

// ledgerEntries returns a copy of the default tenant's ledger entries.
func ledgerEntries(h *Handler) []deployEntry {
	d := defaultTenant(h).deps
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]deployEntry(nil), d.entries...)
}

// TestLedgerSharesRepeatedPlans deploys one request three times and a
// different workflow once: the repeats share the first entry's mapping
// and load vector, the other plan keeps its own, and the ledger still
// encodes exactly as unshared copies of its entries do.
func TestLedgerSharesRepeatedPlans(t *testing.T) {
	h := NewHandler()
	defer h.Close()
	srv := httptest.NewServer(h)
	defer srv.Close()
	wf, n := specPair(t)
	same := `{"workflow": ` + wf + `, "network": ` + n + `, "algorithm": "holm"}`
	for i := 0; i < 3; i++ {
		mustOK(t, srv, http.MethodPost, "/v1/deploy", same)
	}
	ws, n2 := deployPairs(t, 1)
	mustOK(t, srv, http.MethodPost, "/v1/deploy", `{"workflow": `+ws[0]+`, "network": `+n2+`, "algorithm": "holm"}`)

	entries := ledgerEntries(h)
	if len(entries) != 4 {
		t.Fatalf("ledger holds %d entries, want 4", len(entries))
	}
	requireShared(t, entries[0], entries[1])
	requireShared(t, entries[0], entries[2])
	if m, l := sharesPlan(entries[0], entries[3]); m || l {
		t.Fatalf("a different workflow's plan shares the first one's: mapping %v, loads %v", m, l)
	}

	copies := make([]deployEntry, len(entries))
	for i, e := range entries {
		e.Mapping = append([]int(nil), e.Mapping...)
		e.Metrics.Loads = append([]float64(nil), e.Metrics.Loads...)
		copies[i] = e
	}
	got, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(copies)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("shared ledger encodes differently from its deep copy\n got: %s\nwant: %s", got, want)
	}
}

// TestLedgerAddExactEquality covers what add must not share: a plan
// whose hash matches an earlier entry's but whose content differs, and
// empty slices, so that null and [] survive on the wire.
func TestLedgerAddExactEquality(t *testing.T) {
	var d deployLedger
	// Under planHash, {[1], no loads} and {[0], [x]} with x the hash of
	// {[0], no loads} collide.
	x := math.Float64frombits(planHash([]int{0}, nil))
	if planHash([]int{1}, nil) != planHash([]int{0}, []float64{x}) {
		t.Fatal("the constructed plans do not collide")
	}
	d.add(deployEntry{ID: "a", Mapping: []int{1}})
	d.add(deployEntry{ID: "b", Mapping: []int{0}, Metrics: Metrics{Loads: []float64{x}}})
	d.add(deployEntry{ID: "c", Mapping: []int{1}})
	e := d.entries
	if &e[1].Mapping[0] == &e[0].Mapping[0] {
		t.Fatal("a colliding plan with different content shares the first one's mapping")
	}
	if &e[2].Mapping[0] != &e[0].Mapping[0] {
		t.Fatal("an identical plan does not share the first one's mapping")
	}

	// Two empty plans hash and compare equal; each keeps its own slices.
	var empties deployLedger
	empties.add(deployEntry{ID: "null"})
	empties.add(deployEntry{ID: "empty", Mapping: []int{}, Metrics: Metrics{Loads: []float64{}}})
	got, err := json.Marshal(empties.entries)
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"id":"null","algorithm":"","mapping":null,"metrics":{"execTime":0,"timePenalty":0,"combined":0,"makespanEstimate":0,"loads":null}},` +
		`{"id":"empty","algorithm":"","mapping":[],"metrics":{"execTime":0,"timePenalty":0,"combined":0,"makespanEstimate":0,"loads":[]}}]`
	if string(got) != want {
		t.Fatalf("empty plans encode as\n%s\nwant\n%s", got, want)
	}
}

// TestDeploymentsListDuringCommits lists the ledger while deploys
// commit from several goroutines: every listing must be a prefix of
// the final ledger, entry for entry. Run under -race it also checks
// that encoding the capped view outside the lock races no append.
func TestDeploymentsListDuringCommits(t *testing.T) {
	h := NewHandler()
	defer h.Close()
	srv := httptest.NewServer(h)
	defer srv.Close()
	ws, n := deployPairs(t, 2)

	type listing struct {
		Count       int               `json:"count"`
		Deployments []json.RawMessage `json:"deployments"`
	}
	get := func() (listing, error) {
		var l listing
		resp, err := http.Get(srv.URL + "/v1/deployments")
		if err != nil {
			return l, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return l, err
		}
		return l, json.Unmarshal(b, &l)
	}

	const writers, perWriter = 4, 15
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				body := deployBody(ws[(g+i)%len(ws)], n, i)
				resp, err := http.Post(srv.URL+"/v1/deploy", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("deploy = %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	var listings []listing
	var listErr error
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			l, err := get()
			if err != nil {
				listErr = err
				return
			}
			listings = append(listings, l)
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	if listErr != nil {
		t.Fatal(listErr)
	}
	final, err := get()
	if err != nil {
		t.Fatal(err)
	}
	if final.Count != writers*perWriter || len(final.Deployments) != final.Count {
		t.Fatalf("final ledger: count %d with %d entries, want %d", final.Count, len(final.Deployments), writers*perWriter)
	}
	for _, l := range listings {
		if len(l.Deployments) != l.Count {
			t.Fatalf("a listing counts %d but holds %d entries", l.Count, len(l.Deployments))
		}
		for i, raw := range l.Deployments {
			if string(raw) != string(final.Deployments[i]) {
				t.Fatalf("entry %d listed at count %d differs from the final ledger\n got: %s\nwant: %s",
					i, l.Count, raw, final.Deployments[i])
			}
		}
	}
	t.Logf("%d listings checked", len(listings))
}

// ledgerPlan returns plan k as a fresh mapping of ops operations onto
// servers servers and a fresh load vector.
func ledgerPlan(k, ops, servers int) ([]int, []float64) {
	r := stats.NewRNG(uint64(k) + 1)
	mapping := make([]int, ops)
	for i := range mapping {
		mapping[i] = r.Intn(servers)
	}
	loads := make([]float64, servers)
	for i := range loads {
		loads[i] = r.Float64()
	}
	return mapping, loads
}

// BenchmarkLedgerRetained commits 4,000 deployments to an empty
// in-memory ledger per iteration and reports the heap the ledger keeps
// per entry once garbage is collected. Every commit carries freshly
// allocated slices, as the engine's cache clones and metricsOf do.
// repeated cycles four plans of 80–86 operations on 12 servers, the
// shape of the deploy-cached benchmark workload; unique plans 25
// operations on 5 servers afresh for every entry.
func BenchmarkLedgerRetained(b *testing.B) {
	const entries = 4000
	cases := []struct {
		name string
		plan func(i int) ([]int, []float64)
	}{
		{"repeated", func(i int) ([]int, []float64) { return ledgerPlan(i%4, 80+2*(i%4), 12) }},
		{"unique", func(i int) ([]int, []float64) { return ledgerPlan(i, 25, 5) }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			h := NewHandler()
			defer h.Close()
			ts := defaultTenant(h)
			var ms runtime.MemStats
			var retained int64
			for i := 0; i < b.N; i++ {
				ts.deps = &deployLedger{}
				runtime.GC()
				runtime.ReadMemStats(&ms)
				before := int64(ms.HeapAlloc)
				for j := 0; j < entries; j++ {
					mapping, loads := tc.plan(j)
					resp := deployResponse{Algorithm: "localsearch", Mapping: mapping, Metrics: Metrics{Loads: loads}}
					if _, err := ts.deps.commit(ts, "", resp); err != nil {
						b.Fatal(err)
					}
				}
				runtime.GC()
				runtime.ReadMemStats(&ms)
				retained += int64(ms.HeapAlloc) - before
			}
			b.ReportMetric(float64(retained)/float64(b.N*entries), "B/entry")
		})
	}
}
