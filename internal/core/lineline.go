package core

import (
	"fmt"
	"math"
	"sort"

	"wsdeploy/internal/cost"
	"wsdeploy/internal/deploy"
	"wsdeploy/internal/network"
	"wsdeploy/internal/workflow"
)

// LineLine is the paper's algorithm for the simplest configuration: both
// the workflow and the server network are lines (§3.2). It operates in two
// phases:
//
//  1. Fair fill: walking the workflow left to right, operations are packed
//     onto the leftmost server until it comes as close as possible to its
//     ideal (capacity-proportional) load — the paper allows up to a 20%
//     overshoot — then the next server opens. The fill guarantees every
//     server hosts at least one operation.
//  2. Critical-bridge repair (Fix_Bad_Bridges): a bridge is critical when
//     its link speed is in the bottom 20% of link speeds while the message
//     crossing it is in the top 20% of crossing messages. The operation at
//     one end of the bridge is then shifted across, in the direction that
//     replaces the expensive crossing with the cheaper neighbouring
//     message.
//
// The paper describes four variants: with or without phase 2, and filling
// left-to-right or right-to-left; LineLineBest runs all four and keeps the
// cheapest result.
type LineLine struct {
	// SkipFix disables phase 2 (the paper's first variation).
	SkipFix bool
	// Reverse fills right-to-left (the paper's second variation).
	Reverse bool
}

// lineOvershoot is the paper's allowed overshoot over a server's ideal
// load before the fair fill opens the next server.
const lineOvershoot = 0.2

// Name implements Algorithm.
func (a LineLine) Name() string {
	name := "LineLine"
	if a.Reverse {
		name += "-RL"
	}
	if a.SkipFix {
		name += "-NoFix"
	}
	return name
}

// Deploy implements Algorithm. It requires a linear workflow and a line
// network with M >= N.
func (a LineLine) Deploy(w *workflow.Workflow, n *network.Network) (deploy.Mapping, error) {
	if !w.IsLinear() {
		return nil, fmt.Errorf("core: LineLine requires a linear workflow, got %s", w)
	}
	if n.Topology() != network.Line && n.N() > 1 {
		return nil, fmt.Errorf("core: LineLine requires a line network, got %s", n)
	}
	if w.M() < n.N() {
		return nil, fmt.Errorf("core: LineLine requires M >= N (got M=%d, N=%d)", w.M(), n.N())
	}
	in, err := newInstance(w, n, false)
	if err != nil {
		return nil, err
	}
	ops := w.TopoOrder() // the line order O_1 ... O_M
	order := append([]int(nil), ops...)
	servers := make([]int, n.N())
	for i := range servers {
		servers[i] = i
	}
	if a.Reverse {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
		for i, j := 0, len(servers)-1; i < j; i, j = i+1, j-1 {
			servers[i], servers[j] = servers[j], servers[i]
		}
	}

	mp := deploy.NewUnassigned(w.M())
	si := 0
	s := servers[si]
	var current float64
	ideal := func(s int) float64 {
		// idealRemaining starts at Ideal_Cycles(s); LineLine fills against
		// the static ideal, so read it before any assignment mutates it.
		return in.idealRemaining[s]
	}
	idealS := ideal(s)
	for i, op := range order {
		remainingOps := len(order) - i
		remainingServers := len(servers) - si - 1
		if remainingServers > 0 && current > 0 {
			over := current+in.effCycles[op] >= idealS*(1+lineOvershoot)
			if over && remainingOps > remainingServers || remainingOps <= remainingServers {
				si++
				s = servers[si]
				idealS = ideal(s)
				current = 0
			}
		}
		mp[op] = s
		current += in.effCycles[op]
	}

	if !a.SkipFix && n.N() > 1 {
		fixBadBridges(w, n, mp)
	}
	return validated(mp, w, n, a.Name())
}

// fixBadBridges implements the paper's Fix_Bad_Bridges: shift one
// operation across each critical bridge. mp must be a contiguous
// left-to-right (or right-to-left) fill of a linear workflow over a line
// network.
func fixBadBridges(w *workflow.Workflow, n *network.Network, mp deploy.Mapping) {
	order := w.TopoOrder()
	// opsPerServer in line order.
	per := make([][]int, n.N())
	for _, op := range order {
		per[mp[op]] = append(per[mp[op]], op)
	}

	// Thresholds: bottom-20% link speed, top-20% crossing message size.
	speeds := make([]float64, 0, len(n.Links))
	for _, l := range n.Links {
		speeds = append(speeds, l.SpeedBps)
	}
	sort.Float64s(speeds)
	slowCut := speeds[int(math.Ceil(0.2*float64(len(speeds)-1)))]

	crossing := func(i int) (size float64, ok bool) {
		if len(per[i]) == 0 || len(per[i+1]) == 0 {
			return 0, false
		}
		last := per[i][len(per[i])-1]
		first := per[i+1][0]
		ei := w.EdgeBetween(last, first)
		if ei < 0 {
			return 0, false
		}
		return w.Edges[ei].SizeBits, true
	}
	var crossSizes []float64
	for i := 0; i+1 < n.N(); i++ {
		if sz, ok := crossing(i); ok {
			crossSizes = append(crossSizes, sz)
		}
	}
	if len(crossSizes) == 0 {
		return
	}
	sort.Float64s(crossSizes)
	bigCut := crossSizes[int(0.8*float64(len(crossSizes)-1))]

	for i := 0; i+1 < n.N(); i++ {
		li := n.LinkBetween(i, i+1)
		if li < 0 || n.Links[li].SpeedBps > slowCut {
			continue
		}
		sz, ok := crossing(i)
		if !ok || sz < bigCut {
			continue
		}
		// Critical bridge: shift the cheaper end across, never emptying a
		// server. Shifting right moves last(S_i) to S_{i+1}, making the
		// (penult, last) message the new crossing; shifting left moves
		// first(S_{i+1}) to S_i symmetrically.
		rightCost, leftCost := math.Inf(1), math.Inf(1)
		if len(per[i]) >= 2 {
			penult, last := per[i][len(per[i])-2], per[i][len(per[i])-1]
			if ei := w.EdgeBetween(penult, last); ei >= 0 {
				rightCost = w.Edges[ei].SizeBits
			}
		}
		if len(per[i+1]) >= 2 {
			first, second := per[i+1][0], per[i+1][1]
			if ei := w.EdgeBetween(first, second); ei >= 0 {
				leftCost = w.Edges[ei].SizeBits
			}
		}
		switch {
		case rightCost <= leftCost && rightCost < sz:
			last := per[i][len(per[i])-1]
			mp[last] = i + 1
			per[i+1] = append([]int{last}, per[i+1]...)
			per[i] = per[i][:len(per[i])-1]
		case leftCost < rightCost && leftCost < sz:
			first := per[i+1][0]
			mp[first] = i
			per[i] = append(per[i], first)
			per[i+1] = per[i+1][1:]
		}
	}
}

// LineLineBest runs the four Line–Line variants (left/right fill × with/
// without bridge repair) and returns the mapping with the lowest combined
// cost, the paper's "combination of these variants".
type LineLineBest struct{}

// Name implements Algorithm.
func (LineLineBest) Name() string { return "LineLine-Best" }

// Deploy implements Algorithm.
func (LineLineBest) Deploy(w *workflow.Workflow, n *network.Network) (deploy.Mapping, error) {
	model := cost.NewModel(w, n)
	variants := []LineLine{{}, {SkipFix: true}, {Reverse: true}, {Reverse: true, SkipFix: true}}
	var best deploy.Mapping
	bestCost := math.Inf(1)
	var firstErr error
	for _, v := range variants {
		mp, err := v.Deploy(w, n)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if c := model.Combined(mp); c < bestCost {
			best, bestCost = mp, c
		}
	}
	if best == nil {
		return nil, firstErr
	}
	return best, nil
}
