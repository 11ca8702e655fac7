package core

import (
	"context"
	"fmt"
	"math"

	"wsdeploy/internal/cost"
	"wsdeploy/internal/deploy"
	"wsdeploy/internal/network"
	"wsdeploy/internal/workflow"
)

// DefaultExhaustiveLimit bounds how many of the N^M configurations the
// Exhaustive algorithm will enumerate before refusing to run; the paper
// itself only uses the exhaustive algorithm "in small configurations".
const DefaultExhaustiveLimit = 20_000_000

// Exhaustive enumerates every possible mapping and returns the one with
// the minimum combined cost (paper §3.1 and Appendix). Its search space
// is N^M, so it only runs when that count does not exceed
// DefaultExhaustiveLimit.
type Exhaustive struct{}

// Name implements Algorithm.
func (Exhaustive) Name() string { return "Exhaustive" }

// Deploy implements Algorithm.
func (a Exhaustive) Deploy(w *workflow.Workflow, n *network.Network) (deploy.Mapping, error) {
	best, _, err := a.Search(w, n)
	return best, err
}

// DeployContext implements ContextAlgorithm: the enumeration polls ctx
// and on cancellation returns the best mapping seen so far along with the
// context's error.
func (a Exhaustive) DeployContext(ctx context.Context, w *workflow.Workflow, n *network.Network) (deploy.Mapping, error) {
	best, _, err := a.SearchContext(ctx, w, n)
	return best, err
}

// SearchStats reports what the exhaustive enumeration saw; the evaluation
// section uses the per-metric minima to normalize solution quality.
type SearchStats struct {
	Enumerated     int64
	BestCombined   float64
	BestExecTime   float64 // minimum execution time over all mappings
	BestPenalty    float64 // minimum time penalty over all mappings
	WorstCombined  float64
	BestExecMap    deploy.Mapping
	BestPenaltyMap deploy.Mapping
}

// newSearchStats returns the statistics of a search that has seen no
// mapping yet.
func newSearchStats() SearchStats {
	return SearchStats{
		BestCombined:  math.Inf(1),
		BestExecTime:  math.Inf(1),
		BestPenalty:   math.Inf(1),
		WorstCombined: math.Inf(-1),
	}
}

// observe scores mp, counts it, and records it against every statistic
// it improves, cloning mp for the per-metric best mappings so the caller
// may reuse it. It reports whether mp has the lowest combined cost seen
// so far; keeping that mapping is the caller's job.
func (st *SearchStats) observe(model *cost.Model, mp deploy.Mapping) (best bool) {
	exec, pen := model.Score(mp)
	combined := cost.DefaultTimeWeight*exec + cost.DefaultFairWeight*pen
	st.Enumerated++
	if combined < st.BestCombined {
		st.BestCombined = combined
		best = true
	}
	if exec < st.BestExecTime {
		st.BestExecTime = exec
		st.BestExecMap = mp.Clone()
	}
	if pen < st.BestPenalty {
		st.BestPenalty = pen
		st.BestPenaltyMap = mp.Clone()
	}
	if combined > st.WorstCombined {
		st.WorstCombined = combined
	}
	return best
}

// Search enumerates all mappings, returning the combined-cost optimum and
// enumeration statistics.
func (a Exhaustive) Search(w *workflow.Workflow, n *network.Network) (deploy.Mapping, SearchStats, error) {
	return a.SearchContext(context.Background(), w, n)
}

// SearchContext is Search under a context: on cancellation it stops the
// enumeration and returns the best-so-far mapping, the statistics of the
// truncated prefix, and the context's error.
func (a Exhaustive) SearchContext(ctx context.Context, w *workflow.Workflow, n *network.Network) (deploy.Mapping, SearchStats, error) {
	M, N := w.M(), n.N()
	if M == 0 || N == 0 {
		return nil, SearchStats{}, fmt.Errorf("core: Exhaustive on empty workflow or network")
	}
	// Count N^M with overflow care.
	total := 1.0
	for i := 0; i < M; i++ {
		total *= float64(N)
		if total > DefaultExhaustiveLimit {
			return nil, SearchStats{}, fmt.Errorf("core: Exhaustive search space %d^%d exceeds limit %d", N, M, DefaultExhaustiveLimit)
		}
	}

	model := cost.NewModel(w, n)
	mp := deploy.Uniform(M, 0)
	stats := newSearchStats()
	var best deploy.Mapping
	for {
		if stats.Enumerated%pollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return best, stats, err
			}
		}
		if stats.observe(model, mp) {
			best = mp.Clone()
		}
		// Advance the odometer: mp is a base-N counter over M digits.
		i := 0
		for ; i < M; i++ {
			mp[i]++
			if mp[i] < N {
				break
			}
			mp[i] = 0
		}
		if i == M {
			break
		}
	}
	return best, stats, nil
}
