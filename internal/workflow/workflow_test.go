package workflow

import (
	"math"
	"strings"
	"testing"
)

// lineWF returns a 4-operation linear workflow with distinct cycles and
// message sizes.
func lineWF(t *testing.T) *Workflow {
	t.Helper()
	w, err := NewLine("line4", []float64{10, 20, 30, 40}, []float64{100, 200, 300})
	if err != nil {
		t.Fatalf("NewLine: %v", err)
	}
	return w
}

// diamondWF returns source -> XOR -> {a|b} -> /XOR -> sink with branch
// weights 3 and 1.
func diamondWF(t *testing.T) *Workflow {
	t.Helper()
	b := NewBuilder("diamond")
	src := b.Op("src", 5)
	x := b.Split(XorSplit, "xor", 0)
	a := b.Op("a", 10)
	c := b.Op("b", 20)
	j := b.Join(XorSplit, "/xor", 0)
	snk := b.Op("snk", 5)
	b.Link(src, x, 100)
	b.LinkWeighted(x, a, 10, 3)
	b.LinkWeighted(x, c, 20, 1)
	b.Link(a, j, 30)
	b.Link(c, j, 40)
	b.Link(j, snk, 50)
	w, err := b.Build()
	if err != nil {
		t.Fatalf("diamond Build: %v", err)
	}
	return w
}

func TestNewLineBasics(t *testing.T) {
	w := lineWF(t)
	if w.M() != 4 {
		t.Fatalf("M = %d", w.M())
	}
	if !w.IsLinear() {
		t.Fatal("line workflow not linear")
	}
	if w.Source() != 0 || w.Sink() != 3 {
		t.Fatalf("source/sink = %d/%d", w.Source(), w.Sink())
	}
	if got := w.TotalCycles(); got != 100 {
		t.Fatalf("TotalCycles = %v", got)
	}
	if r := w.DecisionRatio(); r != 0 {
		t.Fatalf("DecisionRatio = %v", r)
	}
}

func TestNewLineValidation(t *testing.T) {
	if _, err := NewLine("x", nil, nil); err == nil {
		t.Fatal("empty line accepted")
	}
	if _, err := NewLine("x", []float64{1, 2}, []float64{1, 2}); err == nil {
		t.Fatal("wrong message count accepted")
	}
	if _, err := NewLine("x", []float64{1}, []float64{}); err != nil {
		t.Fatalf("single-op line rejected: %v", err)
	}
}

func TestNewRejectsBadGraphs(t *testing.T) {
	op := func(c float64) Node { return Node{Kind: Operational, Cycles: c, Complement: -1} }
	cases := []struct {
		name  string
		nodes []Node
		edges []Edge
		want  string
	}{
		{"empty", nil, nil, "no nodes"},
		{"edge out of range", []Node{op(1)}, []Edge{{From: 0, To: 5}}, "out of range"},
		{"self loop", []Node{op(1), op(1)}, []Edge{{From: 0, To: 0}}, "self-loop"},
		{"duplicate edge", []Node{op(1), op(1)},
			[]Edge{{From: 0, To: 1}, {From: 0, To: 1}}, "duplicate"},
		{"negative size", []Node{op(1), op(1)},
			[]Edge{{From: 0, To: 1, SizeBits: -1}}, "negative message size"},
		{"negative weight", []Node{op(1), op(1)},
			[]Edge{{From: 0, To: 1, Weight: -1}}, "negative weight"},
		{"negative cycles", []Node{{Kind: Operational, Cycles: -5}}, nil, "negative cycles"},
		{"two sources", []Node{op(1), op(1), op(1)},
			[]Edge{{From: 0, To: 2}, {From: 1, To: 2}}, "source"},
		{"two sinks", []Node{op(1), op(1), op(1)},
			[]Edge{{From: 0, To: 1}, {From: 0, To: 2}}, "sink"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.name, tc.nodes, tc.edges)
			if err == nil {
				t.Fatalf("accepted invalid graph")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestNewRejectsCycle(t *testing.T) {
	op := Node{Kind: Operational, Cycles: 1, Complement: -1}
	_, err := New("cyc", []Node{op, op, op},
		[]Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 1}})
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not rejected: %v", err)
	}
}

func TestTopoOrderValid(t *testing.T) {
	w := diamondWF(t)
	pos := make([]int, w.M())
	for i, u := range w.TopoOrder() {
		pos[u] = i
	}
	for _, e := range w.Edges {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("edge %d->%d violates topological order", e.From, e.To)
		}
	}
}

func TestComplementMatching(t *testing.T) {
	w := diamondWF(t)
	var xor, xorJ int = -1, -1
	for u, nd := range w.Nodes {
		switch nd.Kind {
		case XorSplit:
			xor = u
		case XorJoin:
			xorJ = u
		}
	}
	if xor == -1 || xorJ == -1 {
		t.Fatal("missing decision nodes")
	}
	if w.Nodes[xor].Complement != xorJ || w.Nodes[xorJ].Complement != xor {
		t.Fatalf("complements not matched: %d<->%d", w.Nodes[xor].Complement, w.Nodes[xorJ].Complement)
	}
}

func TestWellFormedRejectsUnmatchedSplit(t *testing.T) {
	// XOR split whose branches never reconverge at a join: the second
	// branch goes straight to the sink — but then the sink has fan-in 2.
	b := NewBuilder("bad")
	x := b.Split(XorSplit, "xor", 0)
	a := b.Op("a", 1)
	c := b.Op("b", 1)
	s := b.Op("snk", 1)
	b.LinkWeighted(x, a, 1, 1)
	b.LinkWeighted(x, c, 1, 1)
	b.Link(a, s, 1)
	b.Link(c, s, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("unmatched split accepted")
	}
}

func TestWellFormedRejectsKindMismatch(t *testing.T) {
	// AND split closed by an XOR join.
	b := NewBuilder("mismatch")
	x := b.Split(AndSplit, "and", 0)
	a := b.Op("a", 1)
	c := b.Op("b", 1)
	j := b.Join(XorSplit, "/xor", 0)
	b.Link(x, a, 1)
	b.Link(x, c, 1)
	b.Link(a, j, 1)
	b.Link(c, j, 1)
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "want a /AND") {
		t.Fatalf("kind mismatch not caught: %v", err)
	}
}

func TestWellFormedRejectsDegenerateSplit(t *testing.T) {
	b := NewBuilder("deg")
	x := b.Split(AndSplit, "and", 0)
	a := b.Op("a", 1)
	b.Link(x, a, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("1-branch split accepted")
	}
}

func TestWellFormedRejectsZeroWeightXor(t *testing.T) {
	b := NewBuilder("zw")
	x := b.Split(XorSplit, "xor", 0)
	a := b.Op("a", 1)
	c := b.Op("b", 1)
	j := b.Join(XorSplit, "/xor", 0)
	b.LinkWeighted(x, a, 1, 0)
	b.LinkWeighted(x, c, 1, 0)
	b.Link(a, j, 1)
	b.Link(c, j, 1)
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "positive branch weight") {
		t.Fatalf("zero-weight XOR not caught: %v", err)
	}
}

func TestNestedBlocks(t *testing.T) {
	// AND( XOR(a|b) , c ) — nested decision blocks must validate and match.
	b := NewBuilder("nested")
	and := b.Split(AndSplit, "and", 0)
	xor := b.Split(XorSplit, "xor", 0)
	a := b.Op("a", 1)
	bb := b.Op("b", 2)
	xj := b.Join(XorSplit, "/xor", 0)
	c := b.Op("c", 3)
	aj := b.Join(AndSplit, "/and", 0)
	b.Link(and, xor, 1)
	b.LinkWeighted(xor, a, 1, 1)
	b.LinkWeighted(xor, bb, 1, 1)
	b.Link(a, xj, 1)
	b.Link(bb, xj, 1)
	b.Link(xj, aj, 1)
	b.Link(and, c, 1)
	b.Link(c, aj, 1)
	w, err := b.Build()
	if err != nil {
		t.Fatalf("nested blocks rejected: %v", err)
	}
	if w.Nodes[int(and)].Complement != int(aj) {
		t.Fatalf("AND matched to %d, want %d", w.Nodes[int(and)].Complement, aj)
	}
	if w.Nodes[int(xor)].Complement != int(xj) {
		t.Fatalf("XOR matched to %d, want %d", w.Nodes[int(xor)].Complement, xj)
	}
}

func TestEdgeBetween(t *testing.T) {
	w := lineWF(t)
	if ei := w.EdgeBetween(0, 1); ei < 0 || w.Edges[ei].SizeBits != 100 {
		t.Fatalf("EdgeBetween(0,1) = %d", ei)
	}
	if ei := w.EdgeBetween(1, 0); ei != -1 {
		t.Fatalf("reverse edge found: %d", ei)
	}
	if ei := w.EdgeBetween(0, 3); ei != -1 {
		t.Fatalf("phantom edge found: %d", ei)
	}
}

func TestCloneIndependence(t *testing.T) {
	w := lineWF(t)
	c := w.Clone()
	c.Nodes[0].Cycles = 999
	if w.Nodes[0].Cycles == 999 {
		t.Fatal("Clone shares node storage")
	}
	if c.M() != w.M() || c.Source() != w.Source() {
		t.Fatal("Clone structure differs")
	}
}

func TestDominators(t *testing.T) {
	w := diamondWF(t)
	// The XOR split dominates everything after it; the join postdominates
	// everything before it.
	var xor, xorJ int
	for u, nd := range w.Nodes {
		switch nd.Kind {
		case XorSplit:
			xor = u
		case XorJoin:
			xorJ = u
		}
	}
	dom, pdom := w.dominators(), w.postdominators()
	if !dom[xorJ].has(xor) {
		t.Fatal("split should dominate join")
	}
	if !pdom[xor].has(xorJ) {
		t.Fatal("join should postdominate split")
	}
	if dom[xor].has(xorJ) {
		t.Fatal("join cannot dominate split")
	}
}

func TestKindHelpers(t *testing.T) {
	if Operational.IsDecision() {
		t.Fatal("OP is not a decision")
	}
	for _, k := range []Kind{AndSplit, OrSplit, XorSplit} {
		if !k.IsSplit() || k.IsJoin() || !k.IsDecision() {
			t.Fatalf("%v misclassified", k)
		}
		j := k.JoinFor()
		if !j.IsJoin() || j.IsSplit() {
			t.Fatalf("JoinFor(%v) = %v misclassified", k, j)
		}
	}
	if AndSplit.JoinFor() != AndJoin || OrSplit.JoinFor() != OrJoin || XorSplit.JoinFor() != XorJoin {
		t.Fatal("JoinFor mapping wrong")
	}
	if AndSplit.String() != "AND" || AndJoin.String() != "/AND" || Operational.String() != "OP" {
		t.Fatal("Kind.String wrong")
	}
}

func TestJoinForPanicsOnNonSplit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("JoinFor on join did not panic")
		}
	}()
	_ = AndJoin.JoinFor()
}

func TestDecisionRatioDiamond(t *testing.T) {
	w := diamondWF(t)
	if got := w.DecisionRatio(); math.Abs(got-2.0/6.0) > 1e-12 {
		t.Fatalf("DecisionRatio = %v", got)
	}
}

func TestStringOutput(t *testing.T) {
	w := lineWF(t)
	if !strings.Contains(w.String(), "line4") {
		t.Fatalf("String() = %q", w.String())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew("bad", nil, nil)
}
