package workflow

import "testing"

func TestDepthAndWidthLine(t *testing.T) {
	w := lineWF(t)
	if w.Depth() != 4 {
		t.Fatalf("line depth = %d", w.Depth())
	}
	if w.PathCount() != 1 {
		t.Fatalf("line paths = %v", w.PathCount())
	}
}

func TestDepthAndWidthDiamond(t *testing.T) {
	w := diamondWF(t) // src -> xor -> {a|b} -> /xor -> snk
	if w.Depth() != 5 {
		t.Fatalf("diamond depth = %d", w.Depth())
	}
	if w.PathCount() != 2 {
		t.Fatalf("diamond paths = %v", w.PathCount())
	}
}

func TestPathCountNestedBlocks(t *testing.T) {
	// Two sequential diamonds: 2 × 2 = 4 paths.
	b := NewBuilder("two-diamonds")
	x1 := b.Split(XorSplit, "x1", 0)
	a1 := b.Op("a1", 1)
	b1 := b.Op("b1", 1)
	j1 := b.Join(XorSplit, "/x1", 0)
	x2 := b.Split(XorSplit, "x2", 0)
	a2 := b.Op("a2", 1)
	b2 := b.Op("b2", 1)
	j2 := b.Join(XorSplit, "/x2", 0)
	b.LinkWeighted(x1, a1, 1, 1)
	b.LinkWeighted(x1, b1, 1, 1)
	b.Link(a1, j1, 1)
	b.Link(b1, j1, 1)
	b.Link(j1, x2, 1)
	b.LinkWeighted(x2, a2, 1, 1)
	b.LinkWeighted(x2, b2, 1, 1)
	b.Link(a2, j2, 1)
	b.Link(b2, j2, 1)
	w := b.MustBuild()
	if w.PathCount() != 4 {
		t.Fatalf("paths = %v, want 4", w.PathCount())
	}
}

func TestMessageBitsAggregates(t *testing.T) {
	w := diamondWF(t)
	// Edges: 100, 10, 20, 30, 40, 50 = 250 total.
	if w.TotalMessageBits() != 250 {
		t.Fatalf("total bits = %v", w.TotalMessageBits())
	}
}
