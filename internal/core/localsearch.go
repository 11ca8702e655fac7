package core

import (
	"context"
	"fmt"
	"math"

	"wsdeploy/internal/cost"
	"wsdeploy/internal/deploy"
	"wsdeploy/internal/network"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/workflow"
)

// LocalSearch is a hill-climbing refiner: starting from a base
// algorithm's mapping (HOLM by default), it repeatedly applies the best
// improving *move* (reassign one operation to another server) until no
// move improves the combined cost or it has accepted 10·M moves.
//
// The paper stops at one-shot greedy constructions; local search is the
// natural next rung on the ladder and doubles as an upper bound on how
// much the greedy solutions leave on the table (see the ablation
// experiment in internal/exp).
type LocalSearch struct {
	// Base produces the initial mapping; nil means HOLM{}.
	Base Algorithm
	// Objective selects what to minimize; the zero value is the paper's
	// combined cost, MinimizeMakespan targets the §6 response-time
	// extension.
	Objective Objective
}

// Name implements Algorithm.
func (a LocalSearch) Name() string {
	return fmt.Sprintf("LocalSearch(%s)", a.base().Name())
}

func (a LocalSearch) base() Algorithm {
	if a.Base == nil {
		return HOLM{}
	}
	return a.Base
}

// Deploy implements Algorithm.
func (a LocalSearch) Deploy(w *workflow.Workflow, n *network.Network) (deploy.Mapping, error) {
	return a.DeployContext(context.Background(), w, n)
}

// DeployContext implements ContextAlgorithm. The context is polled once
// per examined operation (a sweep over all M·(N−1) moves between
// accepted moves can itself be slow on large instances); cancellation
// returns the mapping as refined so far — always total, since the climb
// starts from the base algorithm's complete mapping — together with the
// context's error.
func (a LocalSearch) DeployContext(ctx context.Context, w *workflow.Workflow, n *network.Network) (deploy.Mapping, error) {
	mp, err := DeployContext(ctx, a.base(), w, n)
	if err != nil {
		return mp, err
	}
	model := cost.NewModel(w, n)
	maxMoves := 10 * w.M()
	cur := a.Objective.valueOf(model, mp)
	for move := 0; move < maxMoves; move++ {
		bestOp, bestS := -1, -1
		bestCost := cur
		for op := 0; op < w.M(); op++ {
			if err := ctx.Err(); err != nil {
				return mp, err
			}
			orig := mp[op]
			for s := 0; s < n.N(); s++ {
				if s == orig {
					continue
				}
				mp[op] = s
				if c := a.Objective.valueOf(model, mp); c < bestCost-1e-15 {
					bestCost, bestOp, bestS = c, op, s
				}
			}
			mp[op] = orig
		}
		if bestOp < 0 {
			break // local optimum
		}
		mp[bestOp] = bestS
		cur = bestCost
	}
	return validated(mp, w, n, a.Name())
}

// Anneal is a simulated-annealing search over the mapping space with
// single-operation reassignment moves and a geometric cooling schedule.
// It trades far more evaluations than the greedy suite for solutions that
// approach the exhaustive optimum, bounding from below what any
// deployment algorithm could achieve on an instance.
type Anneal struct {
	// Seed drives the random walk.
	Seed uint64
	// Steps is the number of proposed moves; zero means 2000·M.
	Steps int
	// Base produces the starting mapping; nil starts from a random one.
	Base Algorithm
	// Objective selects what to minimize (see LocalSearch.Objective).
	Objective Objective
}

// annealStartTemp is Anneal's initial temperature relative to the
// initial cost (20% uphill moves accepted early).
const annealStartTemp = 0.2

// Name implements Algorithm.
func (a Anneal) Name() string { return "Anneal" }

// Deploy implements Algorithm.
func (a Anneal) Deploy(w *workflow.Workflow, n *network.Network) (deploy.Mapping, error) {
	return a.DeployContext(context.Background(), w, n)
}

// DeployContext implements ContextAlgorithm: the walk polls ctx
// periodically, and cancellation returns the best mapping accepted so far
// with the context's error.
func (a Anneal) DeployContext(ctx context.Context, w *workflow.Workflow, n *network.Network) (deploy.Mapping, error) {
	if w.M() == 0 || n.N() == 0 {
		return nil, fmt.Errorf("core: Anneal on empty workflow or network")
	}
	r := stats.NewRNG(a.Seed)
	var mp deploy.Mapping
	if a.Base != nil {
		var err error
		mp, err = DeployContext(ctx, a.Base, w, n)
		if err != nil {
			return mp, err
		}
		mp = mp.Clone()
	} else {
		mp = deploy.Random(w, n, r)
	}
	if n.N() == 1 {
		return validated(mp, w, n, a.Name())
	}

	model := cost.NewModel(w, n)
	steps := a.Steps
	if steps <= 0 {
		steps = 2000 * w.M()
	}
	cur := a.Objective.valueOf(model, mp)
	best := mp.Clone()
	bestCost := cur
	t0 := annealStartTemp * cur
	if t0 <= 0 {
		t0 = annealStartTemp
	}
	// Geometric cooling to ~1e-3 of the starting temperature.
	alpha := math.Pow(1e-3, 1/float64(steps))
	temp := t0
	for i := 0; i < steps; i++ {
		if i%pollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return best, err
			}
		}
		op := r.Intn(w.M())
		old := mp[op]
		s := r.Intn(n.N() - 1)
		if s >= old {
			s++
		}
		mp[op] = s
		c := a.Objective.valueOf(model, mp)
		if c <= cur || r.Float64() < math.Exp((cur-c)/temp) {
			cur = c
			if c < bestCost {
				bestCost = c
				copy(best, mp)
			}
		} else {
			mp[op] = old
		}
		temp *= alpha
	}
	return validated(best, w, n, a.Name())
}
