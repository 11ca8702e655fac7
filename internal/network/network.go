// Package network models the service provider's server infrastructure: a
// graph N(S, L) of servers with CPU power ratings connected by links with
// finite speed and propagation delay (the paper's §2.2).
//
// Two topologies are first-class because the paper evaluates them — a
// *line* (servers chained one after another, used for the Line–Line
// configuration) and a *bus* (every pair of servers communicates at the
// same cost, used for the Line–Bus and Graph–Bus configurations) — but the
// package supports arbitrary connected server graphs with shortest-path
// routing, which the paper leaves as future work.
//
// Units are physical: CPU power in Hz, link speed in bits/second,
// propagation delay in seconds, message sizes in bits. The transfer time
// of a message of b bits from server i to server j is
//
//	T(i, j, b) = Σ_{l ∈ Path(i,j)} ( b / Speed(l) + Prop(l) )
//
// and zero when i == j (co-located operations exchange messages for free,
// which is the heart of the deployment trade-off).
package network

import (
	"container/heap"
	"fmt"
	"math"
)

// Topology classifies how a network was constructed.
type Topology int

// Topology values.
const (
	General Topology = iota
	Line             // servers chained S1 - S2 - ... - SN
	Bus              // all pairs connected at identical cost
)

// String returns a human-readable topology name.
func (t Topology) String() string {
	switch t {
	case Line:
		return "line"
	case Bus:
		return "bus"
	default:
		return "general"
	}
}

// Server is a machine that can host web-service operations.
type Server struct {
	Name    string
	PowerHz float64 // P(s): computational power in cycles/second

	// Region labels the datacenter/region hosting the server. Empty for
	// the paper's single-site topologies; NewRegions fills it in. Routing
	// and the cost model ignore the label — geo-awareness lives entirely
	// in the link speeds and propagation delays — so every existing
	// algorithm keeps working unchanged on multi-region networks.
	Region string
}

// Link is a bidirectional connection between two servers.
type Link struct {
	A, B      int
	SpeedBps  float64 // Line_Speed(a, b) in bits/second
	PropDelay float64 // propagation time in seconds
}

// Network is a validated server graph with precomputed all-pairs routing.
// Construct one with New, NewLine or NewBus; the zero value is not usable.
type Network struct {
	Name     string
	Servers  []Server
	Links    []Link
	topology Topology

	adj [][]int // adj[s] = indices into Links incident to s

	// All-pairs routing caches, indexed [from][to]. invSpeed is the sum of
	// 1/Speed over the path's links, so a b-bit transfer costs
	// b*invSpeed + prop.
	invSpeed [][]float64
	prop     [][]float64
	hops     [][]int
	pathLink [][][]int // link indices along the routed path
}

// RefMessageBits is the reference message size used to weigh links during
// route selection in general topologies: the "medium" SOAP message of
// [NgCG04] quoted by the paper (7 581 bytes).
const RefMessageBits = 7581 * 8

// MaxServers bounds the servers in one network. Every network runs
// Dijkstra from each server, which on a bus of N servers costs
// O(N³ log N) time and O(N²) memory: a 2,000-server bus takes minutes
// and hundreds of megabytes. The paper's experiments use a handful of
// servers.
const MaxServers = 256

// checkSize rejects a network of more than MaxServers servers before
// any link or routing table is allocated.
func checkSize(name string, servers int) error {
	if servers > MaxServers {
		return fmt.Errorf("network %q: %d servers exceeds the limit of %d", name, servers, MaxServers)
	}
	return nil
}

// New builds a general network from servers and links. The graph must be
// connected, links must join distinct existing servers with positive
// speed and non-negative propagation delay, at most one link may join any
// pair, every server needs positive power, and there may be at most
// MaxServers servers.
func New(name string, servers []Server, links []Link) (*Network, error) {
	if err := checkSize(name, len(servers)); err != nil {
		return nil, err
	}
	n := &Network{
		Name:     name,
		Servers:  append([]Server(nil), servers...),
		Links:    append([]Link(nil), links...),
		topology: General,
	}
	if err := n.build(); err != nil {
		return nil, fmt.Errorf("network %q: %w", name, err)
	}
	n.topology = n.detectTopology()
	return n, nil
}

// NewLine builds the paper's line topology: N servers chained by N-1
// links. speeds[i] and props[i] describe the link between server i and
// server i+1.
func NewLine(name string, powers, speeds, props []float64) (*Network, error) {
	if len(powers) == 0 {
		return nil, fmt.Errorf("network %q: no servers", name)
	}
	if err := checkSize(name, len(powers)); err != nil {
		return nil, err
	}
	if len(speeds) != len(powers)-1 || len(props) != len(powers)-1 {
		return nil, fmt.Errorf("network %q: %d servers need %d link speeds and delays, got %d and %d",
			name, len(powers), len(powers)-1, len(speeds), len(props))
	}
	servers := make([]Server, len(powers))
	for i, p := range powers {
		servers[i] = Server{Name: fmt.Sprintf("S%d", i+1), PowerHz: p}
	}
	links := make([]Link, len(speeds))
	for i := range speeds {
		links[i] = Link{A: i, B: i + 1, SpeedBps: speeds[i], PropDelay: props[i]}
	}
	n, err := New(name, servers, links)
	if err != nil {
		return nil, err
	}
	n.topology = Line
	return n, nil
}

// NewBus builds the paper's bus topology: every pair of servers
// communicates over the shared medium at the same speed and delay. The
// paper models this as "all the combinations of server pairs with the same
// network costs"; we materialize the complete graph.
func NewBus(name string, powers []float64, speedBps, prop float64) (*Network, error) {
	if len(powers) == 0 {
		return nil, fmt.Errorf("network %q: no servers", name)
	}
	if err := checkSize(name, len(powers)); err != nil {
		return nil, err
	}
	servers := make([]Server, len(powers))
	for i, p := range powers {
		servers[i] = Server{Name: fmt.Sprintf("S%d", i+1), PowerHz: p}
	}
	var links []Link
	for i := 0; i < len(powers); i++ {
		for j := i + 1; j < len(powers); j++ {
			links = append(links, Link{A: i, B: j, SpeedBps: speedBps, PropDelay: prop})
		}
	}
	n, err := New(name, servers, links)
	if err != nil {
		return nil, err
	}
	n.topology = Bus
	return n, nil
}

// MustNewBus is NewBus that panics on error.
func MustNewBus(name string, powers []float64, speedBps, prop float64) *Network {
	n, err := NewBus(name, powers, speedBps, prop)
	if err != nil {
		panic(err)
	}
	return n
}

// MustNewLine is NewLine that panics on error.
func MustNewLine(name string, powers, speeds, props []float64) *Network {
	n, err := NewLine(name, powers, speeds, props)
	if err != nil {
		panic(err)
	}
	return n
}

func (n *Network) build() error {
	if len(n.Servers) == 0 {
		return fmt.Errorf("no servers")
	}
	for i, s := range n.Servers {
		if s.PowerHz <= 0 || math.IsNaN(s.PowerHz) || math.IsInf(s.PowerHz, 0) {
			return fmt.Errorf("server %d (%s) has invalid power %v", i, s.Name, s.PowerHz)
		}
	}
	n.adj = make([][]int, len(n.Servers))
	seen := map[[2]int]bool{}
	for i, l := range n.Links {
		if l.A < 0 || l.A >= len(n.Servers) || l.B < 0 || l.B >= len(n.Servers) {
			return fmt.Errorf("link %d joins out-of-range servers %d-%d", i, l.A, l.B)
		}
		if l.A == l.B {
			return fmt.Errorf("link %d is a self-loop on server %d", i, l.A)
		}
		key := [2]int{min(l.A, l.B), max(l.A, l.B)}
		if seen[key] {
			return fmt.Errorf("duplicate link between servers %d and %d", l.A, l.B)
		}
		seen[key] = true
		if l.SpeedBps <= 0 || math.IsNaN(l.SpeedBps) || math.IsInf(l.SpeedBps, 0) {
			return fmt.Errorf("link %d has invalid speed %v", i, l.SpeedBps)
		}
		if l.PropDelay < 0 {
			return fmt.Errorf("link %d has negative propagation delay %v", i, l.PropDelay)
		}
		n.adj[l.A] = append(n.adj[l.A], i)
		n.adj[l.B] = append(n.adj[l.B], i)
	}
	if len(n.Servers) > 1 && len(n.Links) == 0 {
		return fmt.Errorf("disconnected: %d servers but no links", len(n.Servers))
	}
	if err := n.computeRouting(); err != nil {
		return err
	}
	return nil
}

// detectTopology recognizes line and bus shapes so that generally
// constructed networks still report a meaningful topology.
func (n *Network) detectTopology() Topology {
	N := len(n.Servers)
	if N <= 1 {
		return Bus // degenerate; single-server networks behave like a bus
	}
	if len(n.Links) == N*(N-1)/2 {
		uniform := true
		for _, l := range n.Links[1:] {
			if l.SpeedBps != n.Links[0].SpeedBps || l.PropDelay != n.Links[0].PropDelay {
				uniform = false
				break
			}
		}
		if uniform {
			return Bus
		}
	}
	if len(n.Links) == N-1 {
		// A chain has exactly two degree-1 endpoints and N-2 degree-2
		// middles.
		deg1, deg2 := 0, 0
		for _, a := range n.adj {
			switch len(a) {
			case 1:
				deg1++
			case 2:
				deg2++
			}
		}
		if deg1 == 2 && deg2 == N-2 {
			return Line
		}
	}
	return General
}

// N returns the number of servers, the paper's N.
func (n *Network) N() int { return len(n.Servers) }

// Topology returns the network's recognized topology.
func (n *Network) Topology() Topology { return n.topology }

// TotalPower returns Σ P(s), the paper's Sum_Capacity.
func (n *Network) TotalPower() float64 {
	var sum float64
	for _, s := range n.Servers {
		sum += s.PowerHz
	}
	return sum
}

// TransferTime returns the time to send a message of the given size in
// bits from server i to server j along the routed path; zero if i == j.
func (n *Network) TransferTime(i, j int, bits float64) float64 {
	if i == j {
		return 0
	}
	return bits*n.invSpeed[i][j] + n.prop[i][j]
}

// Hops returns the number of links on the routed path between two
// servers (0 when i == j).
func (n *Network) Hops(i, j int) int { return n.hops[i][j] }

// LinkBetween returns the index of the direct link joining servers i and
// j, or -1 when they are not adjacent.
func (n *Network) LinkBetween(i, j int) int {
	for _, li := range n.adj[i] {
		l := n.Links[li]
		if l.A == j || l.B == j {
			return li
		}
	}
	return -1
}

// String returns a short description of the network.
func (n *Network) String() string {
	return fmt.Sprintf("network %q: %d servers, %d links, %s topology",
		n.Name, len(n.Servers), len(n.Links), n.topology)
}

// computeRouting runs Dijkstra from every server, weighing each link by
// the time a reference-sized message needs to cross it
// (RefMessageBits/speed + propagation). On lines and buses the routed
// paths are the obvious unique ones; on general graphs this favours fast,
// short routes.
func (n *Network) computeRouting() error {
	N := len(n.Servers)
	n.invSpeed = make([][]float64, N)
	n.prop = make([][]float64, N)
	n.hops = make([][]int, N)
	n.pathLink = make([][][]int, N)
	for src := 0; src < N; src++ {
		dist := make([]float64, N)
		prevLink := make([]int, N)
		for i := range dist {
			dist[i] = math.Inf(1)
			prevLink[i] = -1
		}
		dist[src] = 0
		pq := &distHeap{{node: src, d: 0}}
		done := make([]bool, N)
		for pq.Len() > 0 {
			it := heap.Pop(pq).(distItem)
			u := it.node
			if done[u] {
				continue
			}
			done[u] = true
			for _, li := range n.adj[u] {
				l := n.Links[li]
				v := l.A
				if v == u {
					v = l.B
				}
				w := RefMessageBits/l.SpeedBps + l.PropDelay
				if nd := dist[u] + w; nd < dist[v] {
					dist[v] = nd
					prevLink[v] = li
					heap.Push(pq, distItem{node: v, d: nd})
				}
			}
		}
		n.invSpeed[src] = make([]float64, N)
		n.prop[src] = make([]float64, N)
		n.hops[src] = make([]int, N)
		n.pathLink[src] = make([][]int, N)
		for dst := 0; dst < N; dst++ {
			if dst == src {
				continue
			}
			if math.IsInf(dist[dst], 1) {
				return fmt.Errorf("disconnected: no path from server %d to server %d", src, dst)
			}
			// Walk the predecessor links back to the source.
			var path []int
			for v := dst; v != src; {
				li := prevLink[v]
				path = append(path, li)
				l := n.Links[li]
				if l.A == v {
					v = l.B
				} else {
					v = l.A
				}
			}
			// Reverse to run source→destination.
			for a, b := 0, len(path)-1; a < b; a, b = a+1, b-1 {
				path[a], path[b] = path[b], path[a]
			}
			n.pathLink[src][dst] = path
			n.hops[src][dst] = len(path)
			for _, li := range path {
				n.invSpeed[src][dst] += 1 / n.Links[li].SpeedBps
				n.prop[src][dst] += n.Links[li].PropDelay
			}
		}
	}
	return nil
}

// distItem and distHeap implement the Dijkstra priority queue.
type distItem struct {
	node int
	d    float64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
