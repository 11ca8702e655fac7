package geo

import (
	"fmt"
	"sort"

	"wsdeploy/internal/cost"
	"wsdeploy/internal/network"
	"wsdeploy/internal/workflow"
)

// Assignment maps every operation to a region: Assignment[op] is an
// index into the network's Regions() list.
type Assignment []int

// Partitioner cuts a workflow into one part per region. The zero value
// uses the defaults; construct and call Partition, or use the package
// helper PartitionWorkflow.
type Partitioner struct {
	// MaxPasses bounds the KL-style refinement sweeps; zero means 4,
	// negative disables refinement (used by tests to measure its gain).
	MaxPasses int
}

// regionSlack is the multiplicative headroom over each region's ideal
// (capacity-proportional) share of the workflow's cycles, mirroring the
// 20% overshoot allowance of core.Partition.
const regionSlack = 1.2

// regionCosts holds the mean inter-region transfer-time model: a b-bit
// message from region a to region b costs b·slope[a][b] + prop[a][b]
// seconds, averaged over the server pairs of the two regions. The
// diagonal holds the (much smaller) intra-region means, so the cut
// objective measures the *extra* seconds a cross-region edge pays.
type regionCosts struct {
	slope [][]float64
	prop  [][]float64
}

func newRegionCosts(n *network.Network, regions []string) regionCosts {
	k := len(regions)
	servers := make([][]int, k)
	for r, name := range regions {
		servers[r] = n.RegionServers(name)
	}
	rc := regionCosts{slope: make([][]float64, k), prop: make([][]float64, k)}
	for a := 0; a < k; a++ {
		rc.slope[a] = make([]float64, k)
		rc.prop[a] = make([]float64, k)
		for b := 0; b < k; b++ {
			var slopeSum, propSum float64
			pairs := 0
			for _, i := range servers[a] {
				for _, j := range servers[b] {
					if i == j {
						continue
					}
					t0 := n.TransferTime(i, j, 0)
					t1 := n.TransferTime(i, j, 1)
					slopeSum += t1 - t0
					propSum += t0
					pairs++
				}
			}
			if pairs > 0 {
				rc.slope[a][b] = slopeSum / float64(pairs)
				rc.prop[a][b] = propSum / float64(pairs)
			}
		}
	}
	return rc
}

// edgeSeconds returns the mean seconds edge bits (and one propagation
// round) cost between two regions, net of the intra-region baseline —
// zero when a == b.
func (rc regionCosts) edgeSeconds(a, b int, bits, prob float64) float64 {
	if a == b {
		return 0
	}
	return bits*rc.slope[a][b] + prob*rc.prop[a][b]
}

// PartitionWorkflow cuts w into one part per region of n using the
// default partitioner.
func PartitionWorkflow(w *workflow.Workflow, n *network.Network) (Assignment, error) {
	return Partitioner{}.Partition(w, n)
}

// Partition computes a region assignment for every operation of w:
// greedy graph growing (each region absorbs the operations most
// attached to it, seeded at the heaviest unplaced communicator, up to
// its power-proportional share), followed by KL-style boundary
// refinement sweeps that move an operation to another region only when
// that strictly reduces the cut seconds without breaking the region's
// capacity. Networks without region labels collapse to a single part.
// The result is deterministic for a given (workflow, network) pair.
func (p Partitioner) Partition(w *workflow.Workflow, n *network.Network) (Assignment, error) {
	if w.M() == 0 {
		return nil, fmt.Errorf("geo: empty workflow")
	}
	regions := n.Regions()
	assign := make(Assignment, w.M())
	if len(regions) <= 1 {
		return assign, nil // single part; all zeros
	}
	passes := p.MaxPasses
	if passes == 0 {
		passes = 4
	}

	model := cost.NewModel(w, n)
	effCycles := make([]float64, w.M())
	for op, nd := range w.Nodes {
		effCycles[op] = model.NodeProb(op) * nd.Cycles
	}
	effBits := make([]float64, len(w.Edges))
	effProb := make([]float64, len(w.Edges))
	var sumCycles float64
	for _, c := range effCycles {
		sumCycles += c
	}
	for e, edge := range w.Edges {
		effBits[e] = model.EdgeProb(e) * edge.SizeBits
		effProb[e] = model.EdgeProb(e)
	}

	// Region capacities: the ideal capacity-proportional share of the
	// workflow's effective cycles, with slack.
	k := len(regions)
	power := make([]float64, k)
	totalPower := 0.0
	for r, name := range regions {
		for _, s := range n.RegionServers(name) {
			power[r] += n.Servers[s].PowerHz
		}
		totalPower += power[r]
	}
	capacity := make([]float64, k)
	used := make([]float64, k)
	for r := range capacity {
		capacity[r] = sumCycles * power[r] / totalPower * regionSlack
	}

	rc := newRegionCosts(n, regions)

	// Heaviest communicators first: the operations with the most
	// incident effective bits are the costliest to misplace.
	volume := make([]float64, w.M())
	for e, edge := range w.Edges {
		volume[edge.From] += effBits[e]
		volume[edge.To] += effBits[e]
	}
	order := make([]int, w.M())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		if volume[order[i]] != volume[order[j]] {
			return volume[order[i]] > volume[order[j]]
		}
		return order[i] < order[j]
	})

	for i := range assign {
		assign[i] = -1
	}
	// incurred returns the cut seconds op pays if placed in region r,
	// counting only already-assigned neighbours.
	incurred := func(op, r int) float64 {
		var sec float64
		for _, ei := range w.In(op) {
			if nb := assign[w.Edges[ei].From]; nb >= 0 {
				sec += rc.edgeSeconds(nb, r, effBits[ei], effProb[ei])
			}
		}
		for _, ei := range w.Out(op) {
			if nb := assign[w.Edges[ei].To]; nb >= 0 {
				sec += rc.edgeSeconds(r, nb, effBits[ei], effProb[ei])
			}
		}
		return sec
	}

	// Greedy graph growing: carve out one region at a time. A region
	// seeds at the heaviest unplaced communicator, then repeatedly
	// absorbs the unplaced operation most strongly attached (by
	// effective bits) to what it already holds — ties go to the heavier
	// communicator — until it holds its ideal power-proportional share
	// of the cycles or the next absorption would burst its slacked
	// capacity. The last region takes the remainder, keeping the
	// assignment total. Growing regions one at a time (rather than
	// scoring all regions per operation) stops heavy operations of one
	// cluster from seeding competing regions and tearing the cluster.
	ideal := make([]float64, k)
	for r := range ideal {
		ideal[r] = sumCycles * power[r] / totalPower
	}
	for r := 0; r < k-1; r++ {
		attach := make([]float64, w.M())
		for used[r] < ideal[r] {
			next := -1
			for _, op := range order {
				if assign[op] >= 0 {
					continue
				}
				if next < 0 || attach[op] > attach[next] {
					next = op
				}
			}
			if next < 0 {
				break // every operation placed
			}
			if attach[next] > 0 && used[r]+effCycles[next] > capacity[r] {
				break // absorbing more would burst the region
			}
			assign[next] = r
			used[r] += effCycles[next]
			for _, ei := range w.In(next) {
				attach[w.Edges[ei].From] += effBits[ei]
			}
			for _, ei := range w.Out(next) {
				attach[w.Edges[ei].To] += effBits[ei]
			}
		}
	}
	for _, op := range order {
		if assign[op] < 0 {
			assign[op] = k - 1
			used[k-1] += effCycles[op]
		}
	}

	// KL-style boundary refinement: sweep the operations (same order)
	// and move one to another region when that strictly reduces its
	// incurred cut seconds and fits the target's capacity. Every
	// accepted move lowers the global cut, so the objective can only
	// improve; sweeps stop at the first fixpoint.
	for pass := 0; pass < passes; pass++ {
		improved := false
		for _, op := range order {
			cur := assign[op]
			curSec := incurred(op, cur)
			bestR, bestSec := cur, curSec
			for r := 0; r < k; r++ {
				if r == cur || used[r]+effCycles[op] > capacity[r] {
					continue
				}
				if sec := incurred(op, r); sec < bestSec {
					bestR, bestSec = r, sec
				}
			}
			if bestR != cur {
				used[cur] -= effCycles[op]
				used[bestR] += effCycles[op]
				assign[op] = bestR
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return assign, nil
}

// CutSeconds returns the partition objective of an assignment: the total
// effective seconds its cross-region edges spend on inter-region routes,
// net of the intra-region baseline. Lower is better; a partition that
// keeps every message inside its region scores zero.
func CutSeconds(w *workflow.Workflow, n *network.Network, assign Assignment) float64 {
	regions := n.Regions()
	if len(regions) <= 1 {
		return 0
	}
	model := cost.NewModel(w, n)
	rc := newRegionCosts(n, regions)
	var sec float64
	for e, edge := range w.Edges {
		a, b := assign[edge.From], assign[edge.To]
		sec += rc.edgeSeconds(a, b, model.EdgeProb(e)*edge.SizeBits, model.EdgeProb(e))
	}
	return sec
}

// Validate checks that assign is total over w and targets existing
// regions of n.
func (a Assignment) Validate(w *workflow.Workflow, n *network.Network) error {
	if len(a) != w.M() {
		return fmt.Errorf("geo: assignment covers %d operations, workflow has %d", len(a), w.M())
	}
	k := len(n.Regions())
	if k == 0 {
		k = 1
	}
	for op, r := range a {
		if r < 0 || r >= k {
			return fmt.Errorf("geo: operation %d assigned to region %d of %d", op, r, k)
		}
	}
	return nil
}
