// Package exp is the experiment harness that regenerates the paper's
// evaluation (§4): the Line–Bus scatter of Fig. 6, the Random Graph–Bus
// results of Fig. 7, the per-structure breakdown of Fig. 8, the
// solution-quality deviations of §4.2, and the Class A/B parameter sweeps
// that the paper describes but omits for space. Results render as text
// tables and ASCII scatter plots.
//
// Every experiment is deterministic for a fixed seed. Instance i of an
// experiment derives its own RNG, so run counts can change without
// reshuffling earlier instances.
package exp

import (
	"fmt"

	"wsdeploy/internal/core"
	"wsdeploy/internal/cost"
	"wsdeploy/internal/network"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/workflow"
)

// Options configures an experiment family. Zero values take the paper's
// defaults.
type Options struct {
	// Runs is the number of random instances per configuration
	// (paper: 50).
	Runs int
	// Operations is the workflow size M (paper: 19 for Fig. 6; 5–19 for
	// quality sampling).
	Operations int
	// Servers is the list of server counts N to sweep (paper: 3–5).
	Servers []int
	// BusSpeedsMbps are the pinned bus speeds of the sweep (paper: 1 and
	// 100 Mbps in the reported results).
	BusSpeedsMbps []float64
	// Samples is the random-sampling budget for quality assessment
	// (paper: 32 000).
	Samples int
	// Seed derives every instance's randomness.
	Seed uint64
}

// withDefaults fills the paper's §4 defaults.
func (o Options) withDefaults() Options {
	if o.Runs <= 0 {
		o.Runs = 50
	}
	if o.Operations <= 0 {
		o.Operations = 19
	}
	if len(o.Servers) == 0 {
		o.Servers = []int{3, 4, 5}
	}
	if len(o.BusSpeedsMbps) == 0 {
		o.BusSpeedsMbps = []float64{1, 100}
	}
	if o.Samples <= 0 {
		o.Samples = core.DefaultSampleCount
	}
	return o
}

// Point is one algorithm's mean position in the paper's
// (execution time, time penalty) plane for one configuration.
type Point struct {
	Algorithm  string
	ExecTime   float64 // mean Texecute, seconds
	Penalty    float64 // mean time penalty, seconds
	ExecStd    float64
	PenaltyStd float64
	Combined   float64 // mean combined cost
}

// Series is one configuration's set of algorithm points.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a reproduced paper figure: several series of algorithm
// points.
type Figure struct {
	ID     string
	Title  string
	Series []Series
}

// instanceRNG derives the deterministic RNG of instance i of a named
// experiment.
func instanceRNG(seed uint64, figure string, i int) *stats.RNG {
	h := seed
	for _, c := range figure {
		h = h*1099511628211 + uint64(c)
	}
	return stats.NewRNG(h*2654435761 + uint64(i)*0x9e3779b97f4a7c15)
}

// runAlgorithms evaluates every algorithm on one instance and accumulates
// exec/penalty samples into acc, keyed by algorithm name.
type metricAcc struct {
	exec    map[string][]float64
	penalty map[string][]float64
	comb    map[string][]float64
	order   []string
}

func newMetricAcc() *metricAcc {
	return &metricAcc{
		exec:    map[string][]float64{},
		penalty: map[string][]float64{},
		comb:    map[string][]float64{},
	}
}

func (a *metricAcc) add(name string, res cost.Result) {
	if _, seen := a.exec[name]; !seen {
		a.order = append(a.order, name)
	}
	a.exec[name] = append(a.exec[name], res.ExecTime)
	a.penalty[name] = append(a.penalty[name], res.TimePenalty)
	a.comb[name] = append(a.comb[name], res.Combined)
}

func (a *metricAcc) points() []Point {
	pts := make([]Point, 0, len(a.order))
	for _, name := range a.order {
		es := stats.Summarize(a.exec[name])
		ps := stats.Summarize(a.penalty[name])
		pts = append(pts, Point{
			Algorithm:  name,
			ExecTime:   es.Mean,
			Penalty:    ps.Mean,
			ExecStd:    es.Stddev,
			PenaltyStd: ps.Stddev,
			Combined:   stats.Mean(a.comb[name]),
		})
	}
	return pts
}

// evalSuite runs every algorithm of the bus suite on (w, n) and records
// results. Deploy errors are reported, not swallowed.
func evalSuite(acc *metricAcc, algos []core.Algorithm, w *workflow.Workflow, n *network.Network) error {
	model := cost.NewModel(w, n)
	for _, a := range algos {
		mp, err := a.Deploy(w, n)
		if err != nil {
			return fmt.Errorf("exp: %s on %s / %s: %w", a.Name(), w, n, err)
		}
		acc.add(a.Name(), model.Evaluate(mp))
	}
	return nil
}

// bestByCombined returns the point with the lowest mean combined cost.
func bestByCombined(pts []Point) Point {
	best := pts[0]
	for _, p := range pts[1:] {
		if p.Combined < best.Combined {
			best = p
		}
	}
	return best
}
