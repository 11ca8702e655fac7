package exp

import (
	"context"
	"fmt"

	"wsdeploy/internal/cost"
	"wsdeploy/internal/engine"
	"wsdeploy/internal/gen"
)

// toResult lifts an engine plan's cost metrics into the accumulator's
// cost.Result shape.
func toResult(p engine.Plan) cost.Result {
	return cost.Result{ExecTime: p.ExecTime, TimePenalty: p.TimePenalty, Combined: p.Combined}
}

// RunPortfolio measures what instance-wise algorithm selection buys: for
// each configuration it races the whole registry through the concurrent
// portfolio engine on every instance and reports, next to each
// algorithm's usual mean point, a synthetic "Portfolio" point built from
// the per-instance winners. The gap between the Portfolio point and the
// best single algorithm's point is the value of racing instead of
// committing to one strategy (no single heuristic wins everywhere — the
// premise of the paper's side-by-side evaluation).
func RunPortfolio(o Options) (Figure, error) {
	o = o.withDefaults()
	cfg := gen.ClassC()
	eng := engine.New(engine.Options{CacheSize: -1})
	fig := Figure{ID: "portfolio", Title: fmt.Sprintf("Portfolio vs single algorithms, %d operations", o.Operations)}
	structures := gen.Structures()
	for _, mbit := range o.BusSpeedsMbps {
		for _, N := range o.Servers {
			acc := newMetricAcc()
			for i := 0; i < o.Runs; i++ {
				r := instanceRNG(o.Seed, "portfolio", i*1000+N*10+int(mbit))
				w, err := cfg.GraphWorkflow(r, o.Operations, structures[i%len(structures)])
				if err != nil {
					return Figure{}, err
				}
				n, err := cfg.BusNetworkWithSpeed(r, N, mbit*gen.Mbps)
				if err != nil {
					return Figure{}, err
				}
				res, err := eng.Run(context.Background(), engine.Request{Workflow: w, Network: n, Seed: r.Uint64()})
				if err != nil {
					return Figure{}, fmt.Errorf("exp: portfolio on %s / %s: %w", w, n, err)
				}
				if res.Best == nil {
					return Figure{}, fmt.Errorf("exp: portfolio found no mapping on %s / %s", w, n)
				}
				for _, p := range res.Plans {
					if p.Mapping == nil {
						continue // inapplicable on this configuration
					}
					acc.add(p.Name, toResult(p))
				}
				acc.add("Portfolio", toResult(*res.Best))
			}
			fig.Series = append(fig.Series, Series{
				Label:  fmt.Sprintf("bus=%gMbps N=%d", mbit, N),
				Points: acc.points(),
			})
		}
	}
	return fig, nil
}
