package autopilot

import (
	"math"
	"sort"

	"wsdeploy/internal/core"
	"wsdeploy/internal/cost"
	"wsdeploy/internal/deploy"
	"wsdeploy/internal/network"
	"wsdeploy/internal/workflow"
)

// Class is one workflow class under autopilot control: the nominal
// workflow, its live mapping, and the EWMA-smoothed observed arrival
// rate that weights it during replanning. Planning never mutates a
// Class; the loop applies returned mappings through the fleet.
type Class struct {
	ID       string
	Workflow *workflow.Workflow
	Mapping  deploy.Mapping
	Rate     float64 // arrivals per virtual second (EWMA)
}

// ClassMove is one migration step attributed to its class.
type ClassMove struct {
	Class string
	deploy.Move
}

// weight returns the planning weight of a class: its observed rate,
// floored so a class that has not yet seen traffic still counts.
func (c Class) weight() float64 {
	if c.Rate <= 0 {
		return 1e-9
	}
	return c.Rate
}

// weightedWorkflow clones a class's workflow scaling node cycles and
// edge sizes by the class's observed rate, so GreedyPlace and the cost
// model see *offered* load (work per second of wall time) instead of
// per-instance load. Uniform scaling preserves every probability.
func weightedWorkflow(c Class) *workflow.Workflow {
	w := c.Workflow.Clone()
	f := c.weight()
	for i := range w.Nodes {
		w.Nodes[i].Cycles *= f
	}
	for i := range w.Edges {
		w.Edges[i].SizeBits *= f
	}
	return w
}

// classCycles adds the rate-weighted effective cycles class c puts on
// each server under mapping mp into out.
func classCycles(c Class, n *network.Network, mp deploy.Mapping, out []float64) {
	model := cost.NewModel(c.Workflow, n)
	f := c.weight()
	for op, s := range mp {
		if s != deploy.Unassigned {
			out[s] += f * model.NodeProb(op) * c.Workflow.Nodes[op].Cycles
		}
	}
}

// FleetLoads returns the offered per-server load of the whole fleet in
// CPU-seconds per second: each class's expected per-instance seconds
// scaled by its observed rate.
func FleetLoads(classes []Class, n *network.Network) []float64 {
	loads := make([]float64, n.N())
	for _, c := range classes {
		model := cost.NewModel(c.Workflow, n)
		f := c.weight()
		for s, l := range model.Loads(c.Mapping) {
			loads[s] += f * l
		}
	}
	return loads
}

// execTieWeight is the weight of the rate-weighted execution-time term
// in the planner objective. The live SLO the ladder fires on is the
// load-balance penalty, so the penalty term dominates; exec only
// participates enough to keep repairs from shredding locality (the
// paper's 50/50 combined blend would instead reward piling every class
// onto the fastest server — minimizing exec while *raising* the very
// imbalance the detector measured).
const execTieWeight = 0.1

// fleetObjective scores a fleet state for repair planning: the Time
// Penalty of the summed offered loads (the live SLO), plus a small
// rate-weighted Σ exec locality term.
func fleetObjective(classes []Class, n *network.Network, mappings []deploy.Mapping) float64 {
	loads := make([]float64, n.N())
	var exec float64
	for i, c := range classes {
		model := cost.NewModel(c.Workflow, n)
		f := c.weight()
		exec += f * model.ExecutionTime(mappings[i])
		for s, l := range model.Loads(mappings[i]) {
			loads[s] += f * l
		}
	}
	return cost.PenaltyOfLoads(loads) + execTieWeight*exec
}

// moveState returns the migration payload of moving op in workflow w:
// the inbound message sizes (nominal, not rate-weighted — one migration
// ships one copy of the state regardless of traffic).
func moveState(w *workflow.Workflow, op int) float64 {
	var bits float64
	for _, ei := range w.In(op) {
		bits += w.Edges[ei].SizeBits
	}
	return bits
}

// PlanTouchUp is the ladder's first rung: without replanning anything,
// greedily relocate up to maxMoves single operations — each step picks
// the (class, op, server) move with the largest reduction in the
// fleet's combined cost, net of the migration-cost term. It returns the
// post-move mappings (aligned with classes) and the selected moves;
// zero moves means no relocation pays for itself.
func PlanTouchUp(classes []Class, n *network.Network, maxMoves int, migWeight float64) ([]deploy.Mapping, []ClassMove) {
	mappings := make([]deploy.Mapping, len(classes))
	for i, c := range classes {
		mappings[i] = c.Mapping.Clone()
	}
	cur := fleetObjective(classes, n, mappings)
	var moves []ClassMove
	for len(moves) < maxMoves {
		bestGain := 0.0
		bestCi, bestOp, bestTo := -1, -1, -1
		bestCost := 0.0
		for ci, c := range classes {
			for op, from := range mappings[ci] {
				state := moveState(c.Workflow, op)
				for to := 0; to < n.N(); to++ {
					if to == from {
						continue
					}
					mappings[ci][op] = to
					cand := fleetObjective(classes, n, mappings)
					mappings[ci][op] = from
					gain := (cur - cand) - migWeight*n.TransferTime(from, to, state)
					if gain > bestGain {
						bestGain, bestCi, bestOp, bestTo, bestCost = gain, ci, op, to, cand
					}
				}
			}
		}
		if bestCi < 0 {
			break
		}
		from := mappings[bestCi][bestOp]
		mappings[bestCi][bestOp] = bestTo
		cur = bestCost
		moves = append(moves, ClassMove{
			Class: classes[bestCi].ID,
			Move: deploy.Move{
				Op: bestOp, From: from, To: bestTo,
				StateBits: moveState(classes[bestCi].Workflow, bestOp),
			},
		})
	}
	return mappings, moves
}

// PlanDelta is the ladder's second rung: a full rate-weighted replan of
// every class (sequential GreedyPlace, heaviest offered load first —
// the same shape as manager.Rebalance but over *observed* rates), then
// a bounded walk from the live mappings toward that target: greedy
// marginal move selection under the fleet's combined cost with a
// migration-cost term, at most maxMoves operations total across all
// classes. Returns the post-move mappings and the selected moves.
func PlanDelta(classes []Class, n *network.Network, maxMoves int, migWeight float64) ([]deploy.Mapping, []ClassMove, error) {
	// Target: replan heaviest-first against rate-weighted clones.
	order := make([]int, len(classes))
	for i := range order {
		order[i] = i
	}
	weights := make([]float64, len(classes))
	for i, c := range classes {
		weights[i] = c.weight() * c.Workflow.ExpectedCycles()
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })

	targets := make([]deploy.Mapping, len(classes))
	carried := make([]float64, n.N())
	for _, ci := range order {
		ww := weightedWorkflow(classes[ci])
		mp, err := core.GreedyPlace(ww, n, carried)
		if err != nil {
			return nil, nil, err
		}
		targets[ci] = mp
		classCycles(classes[ci], n, mp, carried)
	}

	// Candidate moves: every operation whose target server differs.
	type cand struct {
		ci int
		mv deploy.Move
	}
	var cands []cand
	for ci, c := range classes {
		full, err := deploy.Diff(c.Workflow, c.Mapping, targets[ci])
		if err != nil {
			return nil, nil, err
		}
		for _, mv := range full {
			cands = append(cands, cand{ci, mv})
		}
	}

	mappings := make([]deploy.Mapping, len(classes))
	for i, c := range classes {
		mappings[i] = c.Mapping.Clone()
	}
	cur := fleetObjective(classes, n, mappings)
	var moves []ClassMove
	for maxMoves <= 0 || len(moves) < maxMoves {
		bestIdx, bestGain, bestCost := -1, 0.0, 0.0
		for i, cd := range cands {
			mappings[cd.ci][cd.mv.Op] = cd.mv.To
			c := fleetObjective(classes, n, mappings)
			mappings[cd.ci][cd.mv.Op] = cd.mv.From
			gain := (cur - c) - migWeight*n.TransferTime(cd.mv.From, cd.mv.To, cd.mv.StateBits)
			if gain > bestGain {
				bestIdx, bestGain, bestCost = i, gain, c
			}
		}
		if bestIdx < 0 {
			break
		}
		cd := cands[bestIdx]
		mappings[cd.ci][cd.mv.Op] = cd.mv.To
		cur = bestCost
		moves = append(moves, ClassMove{Class: classes[cd.ci].ID, Move: cd.mv})
		cands = append(cands[:bestIdx], cands[bestIdx+1:]...)
	}
	return mappings, moves, nil
}

// PlanRebalance is the ladder's top rung: the unconstrained
// rate-weighted replan — every class redeployed heaviest-first over an
// empty load landscape — with the full move list (no budget, no
// migration-cost veto). The loop reserves it for drift the bounded
// rungs could not cure.
func PlanRebalance(classes []Class, n *network.Network) ([]deploy.Mapping, []ClassMove, error) {
	return PlanDelta(classes, n, 0, 0)
}

// Utilization returns offered load over capacity: Σ loads / N servers,
// where loads are CPU-seconds per second (so a perfectly balanced fleet
// at 1.0 has every CPU saturated). The scale policy reads it.
func Utilization(loads []float64) float64 {
	var total float64
	for _, l := range loads {
		total += l
	}
	if len(loads) == 0 {
		return 0
	}
	return total / float64(len(loads))
}

// leastLoaded returns the index of the least-loaded server.
func leastLoaded(loads []float64) int {
	best, bestLoad := 0, math.Inf(1)
	for s, l := range loads {
		if l < bestLoad {
			best, bestLoad = s, l
		}
	}
	return best
}
