// Package workflow models web-service workflows as directed acyclic graphs
// of operations, following the formulation of Stamkopoulos, Pitoura and
// Vassiliadis (ICDE 2007).
//
// A workflow W(O, E) has operations as nodes and XML messages as edges.
// Operations are either operational (they perform work, costed in CPU
// cycles) or decision nodes that control the flow of execution. Three kinds
// of decision nodes exist — AND, OR and XOR — each with a complementary
// join node (/AND, /OR, /XOR) that closes it, so that decision nodes and
// their complements nest like parentheses ("well-formed" workflows).
//
// Semantics (paper §2.2):
//   - AND forks all outgoing paths and its complement waits for all of them
//     (a rendezvous);
//   - OR forks all outgoing paths but its complement proceeds as soon as
//     one of them arrives;
//   - XOR picks exactly one outgoing path, probabilistically weighted.
//
// Edge message sizes are expressed in bits and operation costs in CPU
// cycles, matching the units of the paper's cost model (Table 1).
package workflow

import (
	"fmt"
)

// Kind classifies a workflow node.
type Kind int

// The node kinds of the paper: one operational kind, three decision kinds
// and their three complements.
const (
	Operational Kind = iota
	AndSplit         // AND
	OrSplit          // OR
	XorSplit         // XOR
	AndJoin          // /AND — rendezvous of all branches
	OrJoin           // /OR — first branch to arrive wins
	XorJoin          // /XOR — merge of mutually exclusive branches
)

// String returns the paper's notation for the kind.
func (k Kind) String() string {
	switch k {
	case Operational:
		return "OP"
	case AndSplit:
		return "AND"
	case OrSplit:
		return "OR"
	case XorSplit:
		return "XOR"
	case AndJoin:
		return "/AND"
	case OrJoin:
		return "/OR"
	case XorJoin:
		return "/XOR"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// IsDecision reports whether the kind is a decision node or a complement of
// one (i.e., anything but an operational node).
func (k Kind) IsDecision() bool { return k != Operational }

// IsSplit reports whether the kind opens a decision block.
func (k Kind) IsSplit() bool {
	return k == AndSplit || k == OrSplit || k == XorSplit
}

// IsJoin reports whether the kind closes a decision block.
func (k Kind) IsJoin() bool {
	return k == AndJoin || k == OrJoin || k == XorJoin
}

// JoinFor returns the complement kind that closes a split kind. It panics
// when k is not a split.
func (k Kind) JoinFor() Kind {
	switch k {
	case AndSplit:
		return AndJoin
	case OrSplit:
		return OrJoin
	case XorSplit:
		return XorJoin
	default:
		panic(fmt.Sprintf("workflow: JoinFor on non-split kind %v", k))
	}
}

// Node is a workflow operation. Nodes are referenced by their index in
// Workflow.Nodes.
type Node struct {
	Name   string
	Kind   Kind
	Cycles float64 // C(op): CPU cycles to complete the operation

	// Complement links a split node to the index of its matching join (and
	// vice versa). It is -1 for operational nodes. It is computed during
	// validation for well-formed workflows; callers may leave it as -1 and
	// let New fill it in.
	Complement int
}

// Edge is a transition (o_p, o_n): an XML message sent from the operation
// at index From to the operation at index To.
type Edge struct {
	From, To int
	SizeBits float64 // MsgSize(o_p, o_n) in bits

	// Weight is the relative branch weight used when From is an XOR split;
	// the probability of taking this edge is Weight divided by the sum of
	// weights of all edges leaving the split. Ignored (treated as 1)
	// elsewhere. A zero weight on an XOR out-edge means the branch is never
	// taken.
	Weight float64
}

// Workflow is a directed acyclic graph of operations. Construct one with
// New (or a Builder); the zero value is not usable.
type Workflow struct {
	Name  string
	Nodes []Node
	Edges []Edge

	out [][]int // out[u] = indices into Edges leaving node u
	in  [][]int // in[u] = indices into Edges entering node u

	topo   []int // cached topological order
	source int
	sink   int
}

// New validates nodes and edges and builds a workflow. The graph must be a
// non-empty DAG with exactly one source and one sink, no self-loops, and at
// most one edge between any ordered pair of nodes (the paper assumes each
// pair of operations is connected through only one message). Decision-node
// complements are matched and verified; see Validate for the exact rules.
func New(name string, nodes []Node, edges []Edge) (*Workflow, error) {
	w := &Workflow{
		Name:  name,
		Nodes: append([]Node(nil), nodes...),
		Edges: append([]Edge(nil), edges...),
	}
	if err := w.build(); err != nil {
		return nil, fmt.Errorf("workflow %q: %w", name, err)
	}
	return w, nil
}

// MustNew is New that panics on error; intended for tests and examples with
// hand-written literals.
func MustNew(name string, nodes []Node, edges []Edge) *Workflow {
	w, err := New(name, nodes, edges)
	if err != nil {
		panic(err)
	}
	return w
}

// build wires adjacency, checks structural invariants and computes the
// cached topological order, source and sink.
func (w *Workflow) build() error {
	n := len(w.Nodes)
	if n == 0 {
		return fmt.Errorf("no nodes")
	}
	w.out = make([][]int, n)
	w.in = make([][]int, n)
	seen := make(map[[2]int]bool, len(w.Edges))
	for i, e := range w.Edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("edge %d references node out of range: %d->%d", i, e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("edge %d is a self-loop on node %d", i, e.From)
		}
		key := [2]int{e.From, e.To}
		if seen[key] {
			return fmt.Errorf("duplicate edge %d->%d (operations exchange at most one message)", e.From, e.To)
		}
		seen[key] = true
		if e.SizeBits < 0 {
			return fmt.Errorf("edge %d->%d has negative message size %v", e.From, e.To, e.SizeBits)
		}
		if e.Weight < 0 {
			return fmt.Errorf("edge %d->%d has negative weight %v", e.From, e.To, e.Weight)
		}
		w.out[e.From] = append(w.out[e.From], i)
		w.in[e.To] = append(w.in[e.To], i)
	}
	for i, nd := range w.Nodes {
		if nd.Cycles < 0 {
			return fmt.Errorf("node %d (%s) has negative cycles %v", i, nd.Name, nd.Cycles)
		}
	}

	topo, err := w.computeTopo()
	if err != nil {
		return err
	}
	w.topo = topo

	sources, sinks := w.endpoints()
	if len(sources) != 1 {
		return fmt.Errorf("workflow must have exactly one source, found %d", len(sources))
	}
	if len(sinks) != 1 {
		return fmt.Errorf("workflow must have exactly one sink, found %d", len(sinks))
	}
	w.source, w.sink = sources[0], sinks[0]

	if err := w.matchComplements(); err != nil {
		return err
	}
	return nil
}

// computeTopo returns a topological order of the nodes (Kahn's algorithm)
// or an error if the graph has a cycle.
func (w *Workflow) computeTopo() ([]int, error) {
	n := len(w.Nodes)
	indeg := make([]int, n)
	for u := range w.in {
		indeg[u] = len(w.in[u])
	}
	queue := make([]int, 0, n)
	for u := 0; u < n; u++ {
		if indeg[u] == 0 {
			queue = append(queue, u)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, ei := range w.out[u] {
			v := w.Edges[ei].To
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("workflow contains a cycle")
	}
	return order, nil
}

// endpoints returns the indices of nodes with no incoming edges (sources)
// and with no outgoing edges (sinks).
func (w *Workflow) endpoints() (sources, sinks []int) {
	for u := range w.Nodes {
		if len(w.in[u]) == 0 {
			sources = append(sources, u)
		}
		if len(w.out[u]) == 0 {
			sinks = append(sinks, u)
		}
	}
	return sources, sinks
}

// M returns the number of operations (nodes) in the workflow; the paper's
// M.
func (w *Workflow) M() int { return len(w.Nodes) }

// Source returns the index of the unique entry node.
func (w *Workflow) Source() int { return w.source }

// Sink returns the index of the unique exit node.
func (w *Workflow) Sink() int { return w.sink }

// TopoOrder returns a topological order of the node indices. The returned
// slice is shared; callers must not modify it.
func (w *Workflow) TopoOrder() []int { return w.topo }

// Out returns the indices into Edges of the edges leaving node u. The
// returned slice is shared; callers must not modify it.
func (w *Workflow) Out(u int) []int { return w.out[u] }

// In returns the indices into Edges of the edges entering node u. The
// returned slice is shared; callers must not modify it.
func (w *Workflow) In(u int) []int { return w.in[u] }

// EdgeBetween returns the index of the edge from u to v, or -1 if none
// exists.
func (w *Workflow) EdgeBetween(u, v int) int {
	for _, ei := range w.out[u] {
		if w.Edges[ei].To == v {
			return ei
		}
	}
	return -1
}

// IsLinear reports whether the workflow is a simple line
// O_1 -> O_2 -> ... -> O_M, the topology of the paper's Line–Line and
// Line–Bus configurations.
func (w *Workflow) IsLinear() bool {
	for u := range w.Nodes {
		if len(w.out[u]) > 1 || len(w.in[u]) > 1 {
			return false
		}
	}
	return len(w.Edges) == len(w.Nodes)-1
}

// TotalCycles returns the sum of C(op) over all operations, the paper's
// Sum_Cycles.
func (w *Workflow) TotalCycles() float64 {
	var sum float64
	for _, nd := range w.Nodes {
		sum += nd.Cycles
	}
	return sum
}

// DecisionRatio returns the fraction of nodes that are decision nodes
// (splits and joins), the knob that distinguishes bushy (≈50%), hybrid
// (≈35%) and lengthy (≈16%) graphs in the paper's §4.2 evaluation.
func (w *Workflow) DecisionRatio() float64 {
	if len(w.Nodes) == 0 {
		return 0
	}
	d := 0
	for _, nd := range w.Nodes {
		if nd.Kind.IsDecision() {
			d++
		}
	}
	return float64(d) / float64(len(w.Nodes))
}

// Clone returns a deep copy of the workflow.
func (w *Workflow) Clone() *Workflow {
	c, err := New(w.Name, w.Nodes, w.Edges)
	if err != nil {
		// The receiver was already validated; re-validation cannot fail.
		panic(fmt.Sprintf("workflow: Clone of valid workflow failed: %v", err))
	}
	return c
}

// String returns a short human-readable description.
func (w *Workflow) String() string {
	return fmt.Sprintf("workflow %q: %d nodes, %d edges, decision ratio %.0f%%",
		w.Name, len(w.Nodes), len(w.Edges), w.DecisionRatio()*100)
}
