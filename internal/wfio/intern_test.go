package wfio

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"wsdeploy/internal/gen"
	"wsdeploy/internal/network"
	"wsdeploy/internal/obs"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/workflow"
)

// instancePair returns a generated Class C graph workflow and a
// multi-hop line network as raw JSON.
func instancePair(t *testing.T) (wraw, nraw []byte) {
	t.Helper()
	cfg := gen.ClassC()
	w, err := cfg.GraphWorkflow(stats.NewRNG(5), 30, gen.Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	n := network.MustNewLine("line", []float64{1e9, 2e9, 3e9, 1e9}, []float64{1e8, 1e7, 1e8}, []float64{1e-4, 0, 2e-4})
	var wbuf, nbuf bytes.Buffer
	if err := EncodeWorkflow(&wbuf, w); err != nil {
		t.Fatal(err)
	}
	if err := EncodeNetwork(&nbuf, n); err != nil {
		t.Fatal(err)
	}
	return wbuf.Bytes(), nbuf.Bytes()
}

func TestInternSameBytesSamePointer(t *testing.T) {
	wraw, nraw := instancePair(t)
	tab := newInternTable(internBudget, obs.NewRegistry())
	w1, err := tab.workflow(wraw)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := tab.workflow(bytes.Clone(wraw))
	if err != nil {
		t.Fatal(err)
	}
	n1, err := tab.network(nraw)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := tab.network(bytes.Clone(nraw))
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 || n1 != n2 {
		t.Fatalf("equal bytes decoded twice: workflow %p/%p, network %p/%p", w1, w2, n1, n2)
	}
	if h, m := tab.hits.Value(), tab.misses.Value(); h != 2 || m != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/2", h, m)
	}
	if g := tab.kept.Value(); g != float64(workflowBytes(w1)+networkBytes(n1)) {
		t.Fatalf("intern_bytes = %v, want %d", g, workflowBytes(w1)+networkBytes(n1))
	}

	// The package entry points share the process-wide table.
	p1, err := Workflow(wraw)
	if err != nil {
		t.Fatal(err)
	}
	if p2, _ := Workflow(wraw); p1 != p2 {
		t.Fatal("Workflow returned two pointers for the same bytes")
	}
	q1, err := Network(nraw)
	if err != nil {
		t.Fatal(err)
	}
	if q2, _ := Network(nraw); q1 != q2 {
		t.Fatal("Network returned two pointers for the same bytes")
	}
}

// TestInternHitMatchesReaderDecode holds a hit to the reader decode:
// the whole structure, the topological order, and the routed transfer
// time of every server pair.
func TestInternHitMatchesReaderDecode(t *testing.T) {
	wraw, nraw := instancePair(t)
	tab := newInternTable(internBudget, obs.NewRegistry())
	for i := 0; i < 2; i++ {
		w, err := tab.workflow(wraw)
		if err != nil {
			t.Fatal(err)
		}
		n, err := tab.network(nraw)
		if err != nil {
			t.Fatal(err)
		}
		wr, err := DecodeWorkflow(bytes.NewReader(wraw))
		if err != nil {
			t.Fatal(err)
		}
		nr, err := DecodeNetwork(bytes.NewReader(nraw))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(w, wr) || !reflect.DeepEqual(w.TopoOrder(), wr.TopoOrder()) {
			t.Fatalf("call %d: workflow differs from the reader decode", i)
		}
		if !reflect.DeepEqual(n, nr) {
			t.Fatalf("call %d: network differs from the reader decode", i)
		}
		for a := 0; a < n.N(); a++ {
			for b := 0; b < n.N(); b++ {
				if got, want := n.TransferTime(a, b, network.RefMessageBits), nr.TransferTime(a, b, network.RefMessageBits); got != want {
					t.Fatalf("call %d: TransferTime(%d, %d) = %v, want %v", i, a, b, got, want)
				}
			}
		}
	}
	if tab.hits.Value() != 2 {
		t.Fatalf("second call did not hit: %d hits", tab.hits.Value())
	}
}

func TestInternNeverKeepsErrors(t *testing.T) {
	tab := newInternTable(internBudget, obs.NewRegistry())
	bad := [][]byte{
		[]byte(`nonsense`),
		[]byte(`{"name":"x","nodes":[{"name":"a","kind":"NOPE","cycles":1}],"edges":[]}`),
		[]byte(`{"name":"x","servers":[{"powerHz":-5}],"bus":{"speedBps":1e8}}`),
	}
	for i := 0; i < 3; i++ {
		for _, raw := range bad {
			if w, err := tab.workflow(raw); err == nil || w != nil {
				t.Fatalf("call %d: workflow %q accepted", i, raw)
			}
			if n, err := tab.network(raw); err == nil || n != nil {
				t.Fatalf("call %d: network %q accepted", i, raw)
			}
		}
	}
	if tab.cache.Len() != 0 || tab.cache.Used() != 0 {
		t.Fatalf("errors kept: %d items, %d bytes", tab.cache.Len(), tab.cache.Used())
	}
	if tab.hits.Value() != 0 || tab.misses.Value() != 18 {
		t.Fatalf("hits/misses = %d/%d, want 0/18", tab.hits.Value(), tab.misses.Value())
	}
}

func TestInternOversizeNotKept(t *testing.T) {
	wraw, _ := instancePair(t)
	w, err := DecodeWorkflow(bytes.NewReader(wraw))
	if err != nil {
		t.Fatal(err)
	}
	tab := newInternTable(workflowBytes(w)-1, obs.NewRegistry())
	got, err := tab.workflow(wraw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, w) {
		t.Fatal("oversize workflow differs from the reader decode")
	}
	if again, _ := tab.workflow(wraw); again == got {
		t.Fatal("oversize workflow was kept")
	}
	if tab.cache.Len() != 0 || tab.cache.Used() != 0 || tab.evictions.Value() != 0 {
		t.Fatalf("oversize entry kept: %d items, %d bytes, %d evictions", tab.cache.Len(), tab.cache.Used(), tab.evictions.Value())
	}
}

// TestInternEvictsOldestWithinBudget inserts 1,000 distinct workflows
// and requires the kept set to be the newest inserts, its estimate
// within the budget, and every other insert counted as an eviction.
// That the kept estimate is the sum of the kept entries' costs, and
// that the kept entries run newest to oldest, is internal/lru's to
// prove (TestLRUManyInsertsKeepTheNewest).
func TestInternEvictsOldestWithinBudget(t *testing.T) {
	const inserts = 1000
	tab := newInternTable(internBudget, obs.NewRegistry())
	base := gen.MotivatingExample()
	raws := make([][]byte, inserts)
	for i := range raws {
		w, err := workflow.New(fmt.Sprintf("w%04d", i), base.Nodes, base.Edges)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeWorkflow(&buf, w); err != nil {
			t.Fatal(err)
		}
		raws[i] = buf.Bytes()
		if _, err := tab.workflow(raws[i]); err != nil {
			t.Fatal(err)
		}
	}
	used := tab.cache.Used()
	if used > internBudget || float64(used) != tab.kept.Value() {
		t.Fatalf("kept estimate %d (gauge %v) against budget %d", used, tab.kept.Value(), internBudget)
	}
	kept := tab.cache.Len()
	if kept == 0 || kept == inserts {
		t.Fatalf("kept %d of %d inserts", kept, inserts)
	}
	if ev := tab.evictions.Value(); ev != int64(inserts-kept) {
		t.Fatalf("evictions = %d, want %d", ev, inserts-kept)
	}
	// Exactly the last kept inserts survive: a lookup of each older
	// one misses, and each newer one returns its own workflow.
	for i, raw := range raws {
		v, ok := tab.cache.Get(internKey{sum: sha256.Sum256(raw)})
		if ok != (i >= inserts-kept) {
			t.Fatalf("insert %d of %d: kept = %v with the newest %d kept", i, inserts, ok, kept)
		}
		if want := fmt.Sprintf("w%04d", i); ok && v.(*workflow.Workflow).Name != want {
			t.Fatalf("insert %d is kept as %s, want %s", i, v.(*workflow.Workflow).Name, want)
		}
	}
}
