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
	"wsdeploy/internal/store"
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
	ts := defaultTenant(h)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return append([]deployEntry(nil), ts.deps.entries...)
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
					if _, err := ts.commitDeployment("", resp); err != nil {
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

// listedIDs returns the ids GET /v1/deployments lists, oldest first.
func listedIDs(t *testing.T, srv *httptest.Server) []string {
	t.Helper()
	var l struct {
		Deployments []deployEntry `json:"deployments"`
	}
	if err := json.Unmarshal([]byte(getBody(t, srv, "/v1/deployments")), &l); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(l.Deployments))
	for i, e := range l.Deployments {
		ids[i] = e.ID
	}
	return ids
}

// requireRejected posts body as a deploy and requires status code and a
// journal that did not move.
func requireRejected(t *testing.T, srv *httptest.Server, st *store.Store, body string, code int) {
	t.Helper()
	seq := st.LastSeq()
	if resp, out := post(t, srv, "/v1/deploy", body); resp.StatusCode != code {
		t.Fatalf("deploy %s = %d %v, want %d", body[:min(len(body), 40)], resp.StatusCode, out, code)
	}
	if got := st.LastSeq(); got != seq {
		t.Fatalf("a rejected deploy was journaled: lastSeq %d -> %d", seq, got)
	}
}

func TestReservedID(t *testing.T) {
	for id, want := range map[string]bool{
		"dep-1": true, "dep-0": true, "dep-007": true, "dep-99999999999999999999": true,
		"": false, "dep-": false, "dep-1a": false, "dep--1": false, "Dep-1": false,
		"dep-١": false, "billing": false, "xdep-1": false,
	} {
		if got := reservedID(id); got != want {
			t.Errorf("reservedID(%q) = %v, want %v", id, got, want)
		}
	}
}

// TestAutoIDNeverRepeatsNamed replays the sequence that once listed
// dep-2 twice: a deploy naming dep-2, then two auto deploys. Naming the
// auto form answers 400 and journals nothing, and the auto deploys take
// dep-1 and dep-2, each listed once.
func TestAutoIDNeverRepeatsNamed(t *testing.T) {
	srv, st := durableServer(t, t.TempDir())
	defer st.Close()
	defer srv.Close()
	wf, n := specPair(t)
	requireRejected(t, srv, st, `{"id": "dep-2", "workflow": `+wf+`, "network": `+n+`}`, http.StatusBadRequest)
	for _, want := range []string{"dep-1", "dep-2"} {
		if out := mustOK(t, srv, http.MethodPost, "/v1/deploy", `{"workflow": `+wf+`, "network": `+n+`}`); out["id"] != want {
			t.Fatalf("auto id = %v, want %s", out["id"], want)
		}
	}
	if ids := listedIDs(t, srv); strings.Join(ids, ",") != "dep-1,dep-2" {
		t.Fatalf("ledger lists %q, want dep-1 and dep-2 once each", ids)
	}
}

// TestNamedIDPostedTwice: a second deploy naming an id the ledger holds
// answers 409 and journals nothing, and the id is listed once.
func TestNamedIDPostedTwice(t *testing.T) {
	srv, st := durableServer(t, t.TempDir())
	defer st.Close()
	defer srv.Close()
	wf, n := specPair(t)
	named := `{"id": "billing", "workflow": ` + wf + `, "network": ` + n + `}`
	if out := mustOK(t, srv, http.MethodPost, "/v1/deploy", named); out["id"] != "billing" {
		t.Fatalf("named deploy answered id %v", out["id"])
	}
	requireRejected(t, srv, st, named, http.StatusConflict)
	if ids := listedIDs(t, srv); strings.Join(ids, ",") != "billing" {
		t.Fatalf("ledger lists %q, want billing once", ids)
	}
}

// TestDeployIDRulesSurviveRestart restarts a ledger holding an auto and
// a named deploy, from the raw log as after kill -9 and from a
// snapshot: the named id still answers 409, the auto form 400, neither
// is journaled, and the next auto id is the entry's position.
func TestDeployIDRulesSurviveRestart(t *testing.T) {
	wf, n := specPair(t)
	for _, snapshot := range []bool{false, true} {
		dir := t.TempDir()
		srv, st := durableServer(t, dir)
		mustOK(t, srv, http.MethodPost, "/v1/deploy", `{"workflow": `+wf+`, "network": `+n+`}`)
		mustOK(t, srv, http.MethodPost, "/v1/deploy", `{"id": "billing", "workflow": `+wf+`, "network": `+n+`}`)
		if snapshot {
			if err := srv.Config.Handler.(*Handler).SnapshotNow(); err != nil {
				t.Fatal(err)
			}
		}
		srv.Close()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		srv, st = durableServer(t, dir)
		requireRejected(t, srv, st, `{"id": "billing", "workflow": `+wf+`, "network": `+n+`}`, http.StatusConflict)
		requireRejected(t, srv, st, `{"id": "dep-3", "workflow": `+wf+`, "network": `+n+`}`, http.StatusBadRequest)
		if out := mustOK(t, srv, http.MethodPost, "/v1/deploy", `{"workflow": `+wf+`, "network": `+n+`}`); out["id"] != "dep-3" {
			t.Fatalf("snapshot %v: next auto id = %v, want dep-3", snapshot, out["id"])
		}
		if ids := listedIDs(t, srv); strings.Join(ids, ",") != "dep-1,billing,dep-3" {
			t.Fatalf("snapshot %v: ledger lists %q", snapshot, ids)
		}
		srv.Close()
		st.Close()
	}
}
