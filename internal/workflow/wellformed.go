package workflow

import (
	"fmt"
	"math/bits"
)

// This file implements the paper's well-formedness check (§2.2): "a
// workflow is well-formed if for every decision node a, there exists a
// complement node /a, and all paths stemming from a also pass from /a.
// Plainly speaking, decision nodes and their complements act as
// parentheses."
//
// The check is structural:
//
//   - operational nodes have at most one incoming and one outgoing message
//     (fan-out only happens at splits, fan-in only at joins);
//   - every split has at least two branches, every join merges at least
//     two;
//   - the complement of a split is its immediate postdominator, which must
//     be a join of the matching kind ("all paths stemming from a also pass
//     from /a");
//   - the split dominates its join (no path sneaks into the block from
//     outside), and the split↔join matching is a bijection.
//
// Dominators and postdominators are computed with the classic iterative
// set-intersection data-flow algorithm over bitsets; workflows are small
// (tens to hundreds of nodes), so the O(V·E·V/64) bound is immaterial.

// bitset is a fixed-capacity set of small non-negative integers.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) fill() {
	for i := range b {
		b[i] = ^uint64(0)
	}
}

// intersect replaces b with b ∩ o and reports whether b changed.
func (b bitset) intersect(o bitset) bool {
	changed := false
	for i := range b {
		nv := b[i] & o[i]
		if nv != b[i] {
			changed = true
			b[i] = nv
		}
	}
	return changed
}

func (b bitset) copyFrom(o bitset) { copy(b, o) }

func (b bitset) count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// dominators returns dom[u], the set of nodes that appear on every path
// from the source to u (including u itself).
func (w *Workflow) dominators() []bitset {
	n := len(w.Nodes)
	dom := make([]bitset, n)
	for u := 0; u < n; u++ {
		dom[u] = newBitset(n)
		if u == w.source {
			dom[u].set(u)
		} else {
			dom[u].fill()
		}
	}
	// A single pass in topological order reaches the fixpoint on a DAG.
	for _, u := range w.topo {
		if u == w.source {
			continue
		}
		first := true
		for _, ei := range w.in[u] {
			p := w.Edges[ei].From
			if first {
				dom[u].copyFrom(dom[p])
				first = false
			} else {
				dom[u].intersect(dom[p])
			}
		}
		dom[u].set(u)
	}
	return dom
}

// postdominators returns pdom[u], the set of nodes that appear on every
// path from u to the sink (including u itself).
func (w *Workflow) postdominators() []bitset {
	n := len(w.Nodes)
	pdom := make([]bitset, n)
	for u := 0; u < n; u++ {
		pdom[u] = newBitset(n)
		if u == w.sink {
			pdom[u].set(u)
		} else {
			pdom[u].fill()
		}
	}
	// Reverse topological order gives the fixpoint in one pass on a DAG.
	for i := len(w.topo) - 1; i >= 0; i-- {
		u := w.topo[i]
		if u == w.sink {
			continue
		}
		first := true
		for _, ei := range w.out[u] {
			s := w.Edges[ei].To
			if first {
				pdom[u].copyFrom(pdom[s])
				first = false
			} else {
				pdom[u].intersect(pdom[s])
			}
		}
		pdom[u].set(u)
	}
	return pdom
}

// immediatePostdominator returns, for node u, the closest strict
// postdominator: the v ≠ u in pdom[u] whose own postdominator set is
// largest (postdominator sets along a path to the sink form a chain, so
// the largest set belongs to the nearest node). Returns -1 for the sink.
func immediatePostdominator(u int, pdom []bitset) int {
	best, bestCount := -1, -1
	for v := range pdom {
		if v == u || !pdom[u].has(v) {
			continue
		}
		if c := pdom[v].count(); c > bestCount {
			best, bestCount = v, c
		}
	}
	return best
}

// matchComplements verifies the structural well-formedness rules and fills
// in Node.Complement for every decision node. It is called by New.
func (w *Workflow) matchComplements() error {
	for i := range w.Nodes {
		w.Nodes[i].Complement = -1
	}

	var splits, joins []int
	for u, nd := range w.Nodes {
		switch {
		case nd.Kind == Operational:
			if len(w.out[u]) > 1 {
				return fmt.Errorf("operational node %d (%s) has fan-out %d; fan-out requires a decision node",
					u, nd.Name, len(w.out[u]))
			}
			if len(w.in[u]) > 1 {
				return fmt.Errorf("operational node %d (%s) has fan-in %d; fan-in requires a complement node",
					u, nd.Name, len(w.in[u]))
			}
		case nd.Kind.IsSplit():
			if len(w.out[u]) < 2 {
				return fmt.Errorf("split node %d (%s %s) has %d branches; need at least 2",
					u, nd.Name, nd.Kind, len(w.out[u]))
			}
			if len(w.in[u]) > 1 {
				return fmt.Errorf("split node %d (%s) has fan-in %d", u, nd.Name, len(w.in[u]))
			}
			splits = append(splits, u)
		case nd.Kind.IsJoin():
			if len(w.in[u]) < 2 {
				return fmt.Errorf("join node %d (%s %s) merges %d branches; need at least 2",
					u, nd.Name, nd.Kind, len(w.in[u]))
			}
			if len(w.out[u]) > 1 {
				return fmt.Errorf("join node %d (%s) has fan-out %d", u, nd.Name, len(w.out[u]))
			}
			joins = append(joins, u)
		}
		if nd.Kind == XorSplit {
			var total float64
			for _, ei := range w.out[u] {
				total += w.Edges[ei].Weight
			}
			if total <= 0 {
				return fmt.Errorf("XOR split %d (%s) has no positive branch weight", u, nd.Name)
			}
		}
	}
	if len(splits) != len(joins) {
		return fmt.Errorf("%d split nodes but %d join nodes", len(splits), len(joins))
	}
	if len(splits) == 0 {
		return nil
	}

	dom := w.dominators()
	pdom := w.postdominators()
	for _, s := range splits {
		j := immediatePostdominator(s, pdom)
		if j < 0 {
			return fmt.Errorf("split node %d (%s) has no postdominator; not well-formed", s, w.Nodes[s].Name)
		}
		want := w.Nodes[s].Kind.JoinFor()
		if w.Nodes[j].Kind != want {
			return fmt.Errorf("split node %d (%s %s): paths reconverge at node %d (%s %s), want a %s",
				s, w.Nodes[s].Name, w.Nodes[s].Kind, j, w.Nodes[j].Name, w.Nodes[j].Kind, want)
		}
		if w.Nodes[j].Complement != -1 {
			return fmt.Errorf("join node %d (%s) closes both split %d and split %d",
				j, w.Nodes[j].Name, w.Nodes[j].Complement, s)
		}
		if !dom[j].has(s) {
			return fmt.Errorf("split %d does not dominate its join %d; a path enters the block from outside", s, j)
		}
		w.Nodes[s].Complement = j
		w.Nodes[j].Complement = s
	}
	for _, j := range joins {
		if w.Nodes[j].Complement == -1 {
			return fmt.Errorf("join node %d (%s) closes no split", j, w.Nodes[j].Name)
		}
	}
	return nil
}
