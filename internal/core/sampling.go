package core

import (
	"context"
	"fmt"

	"wsdeploy/internal/cost"
	"wsdeploy/internal/deploy"
	"wsdeploy/internal/network"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/workflow"
)

// DefaultSampleCount matches the paper's evaluation methodology: "each
// sample involved 32,000 potential solutions" (§4.1).
const DefaultSampleCount = 32_000

// Sampling draws uniformly random mappings and keeps the best; it is the
// baseline the paper uses to assess solution quality on search spaces too
// large to enumerate.
type Sampling struct {
	// Samples is the number of random mappings drawn; zero means
	// DefaultSampleCount.
	Samples int
	// Seed makes the draw deterministic.
	Seed uint64
}

// Name implements Algorithm.
func (a Sampling) Name() string { return fmt.Sprintf("Sampling(%d)", a.samples()) }

func (a Sampling) samples() int {
	if a.Samples <= 0 {
		return DefaultSampleCount
	}
	return a.Samples
}

// Deploy implements Algorithm, returning the sampled mapping with the
// lowest combined cost.
func (a Sampling) Deploy(w *workflow.Workflow, n *network.Network) (deploy.Mapping, error) {
	best, _, err := a.Search(w, n)
	return best, err
}

// DeployContext implements ContextAlgorithm: on cancellation the best
// mapping of the samples drawn so far is returned with the context's
// error.
func (a Sampling) DeployContext(ctx context.Context, w *workflow.Workflow, n *network.Network) (deploy.Mapping, error) {
	best, _, err := a.SearchContext(ctx, w, n)
	return best, err
}

// Search draws the configured number of random mappings and reports the
// per-metric minima alongside the combined-cost winner, mirroring
// Exhaustive.Search for spaces that cannot be enumerated.
func (a Sampling) Search(w *workflow.Workflow, n *network.Network) (deploy.Mapping, SearchStats, error) {
	return a.SearchContext(context.Background(), w, n)
}

// SearchContext is Search under a context; a cancelled draw returns the
// truncated sample's statistics and best mapping with the context's
// error.
func (a Sampling) SearchContext(ctx context.Context, w *workflow.Workflow, n *network.Network) (deploy.Mapping, SearchStats, error) {
	if w.M() == 0 || n.N() == 0 {
		return nil, SearchStats{}, fmt.Errorf("core: Sampling on empty workflow or network")
	}
	model := cost.NewModel(w, n)
	r := stats.NewRNG(a.Seed)
	st := newSearchStats()
	var best deploy.Mapping
	// Every draw overwrites one mapping, taking r.Intn in the order
	// deploy.Random does, so the samples are the ones it would return.
	mp := make(deploy.Mapping, w.M())
	for i := 0; i < a.samples(); i++ {
		if i%pollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return best, st, err
			}
		}
		for op := range mp {
			mp[op] = r.Intn(n.N())
		}
		if st.observe(model, mp) {
			best = mp.Clone()
		}
	}
	return best, st, nil
}
