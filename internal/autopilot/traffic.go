package autopilot

import (
	"fmt"
	"math"

	"wsdeploy/internal/stats"
)

// Shape selects the open-loop load profile of the traffic generator.
type Shape string

const (
	// Steady holds the arrival rate and the class mix constant — the
	// no-drift baseline the zero-thrash tests run against.
	Steady Shape = "steady"
	// Diurnal modulates the total arrival rate sinusoidally with the
	// configured amplitude and period while keeping the class mix
	// constant. Because the drift signal is normalized, a diurnal swing
	// alone must NOT trigger the autopilot.
	Diurnal Shape = "diurnal"
	// Skew ramps the class mix toward the hot class over the horizon
	// (keeping the total rate steady), concentrating load on the hot
	// class's servers — the canonical drift scenario.
	Skew Shape = "skew"
)

// ParseShape validates a user-supplied shape name.
func ParseShape(s string) (Shape, error) {
	switch Shape(s) {
	case Steady, Diurnal, Skew:
		return Shape(s), nil
	}
	return "", fmt.Errorf("autopilot: unknown traffic shape %q (want steady, diurnal or skew)", s)
}

// TrafficConfig parameterizes the seeded open-loop generator.
type TrafficConfig struct {
	// Rate is the mean total arrival rate, instances per virtual second.
	// Default 4.
	Rate float64
	// Shape is the load profile; default Steady.
	Shape Shape
	// Amplitude is the diurnal modulation depth in [0,1); default 0.6.
	// Only used by Diurnal.
	Amplitude float64
	// Period is the diurnal period in virtual seconds; default 40.
	Period float64
	// Classes is the number of workflow classes arrivals are spread
	// over; default 3. Class indices are 0..Classes-1.
	Classes int
	// HotClass is the class the Skew shape ramps toward; the zero value
	// picks class 0, and out-of-range values fall back to the last class.
	HotClass int
	// HotShare is the hot class's final share of arrivals in (0,1];
	// default 0.8. The ramp is linear from the uniform share at t=0 to
	// HotShare at t=Horizon.
	HotShare float64
	// Horizon is the generation horizon in virtual seconds; default 100.
	Horizon float64
	// Seed drives the Poisson process and the class draws.
	Seed uint64
}

// WithDefaults fills unset fields with the documented defaults.
func (c TrafficConfig) WithDefaults() TrafficConfig {
	if c.Rate <= 0 {
		c.Rate = 4
	}
	if c.Shape == "" {
		c.Shape = Steady
	}
	if c.Amplitude <= 0 || c.Amplitude >= 1 {
		if c.Shape == Diurnal {
			c.Amplitude = 0.6
		} else {
			c.Amplitude = 0
		}
	}
	if c.Period <= 0 {
		c.Period = 40
	}
	if c.Classes <= 0 {
		c.Classes = 3
	}
	if c.HotClass < 0 || c.HotClass >= c.Classes {
		c.HotClass = c.Classes - 1
	}
	if c.HotShare <= 0 || c.HotShare > 1 {
		c.HotShare = 0.8
	}
	if c.Horizon <= 0 {
		c.Horizon = 100
	}
	return c
}

// Arrival is one generated workflow-instance arrival.
type Arrival struct {
	Time  float64 // virtual seconds
	Class int     // workflow class index, 0..Classes-1
}

// Generator produces a seeded Poisson arrival stream. Arrivals are
// drawn by thinning: exponential gaps at the peak rate, each candidate
// accepted with probability RateAt(t)/peak — so the *same seed yields
// the same candidate stream* across shapes that share a peak rate, and
// the process is exactly Poisson with the time-varying intensity.
type Generator struct {
	cfg  TrafficConfig
	rng  *stats.RNG
	t    float64
	peak float64
}

// NewGenerator builds a generator; cfg is normalized WithDefaults.
func NewGenerator(cfg TrafficConfig) *Generator {
	cfg = cfg.WithDefaults()
	return &Generator{
		cfg:  cfg,
		rng:  stats.NewRNG(cfg.Seed),
		peak: cfg.Rate * (1 + cfg.Amplitude),
	}
}

// Config returns the normalized configuration.
func (g *Generator) Config() TrafficConfig { return g.cfg }

// RateAt returns the instantaneous total arrival rate at virtual time t.
func (g *Generator) RateAt(t float64) float64 {
	if g.cfg.Shape == Diurnal {
		return g.cfg.Rate * (1 + g.cfg.Amplitude*math.Sin(2*math.Pi*t/g.cfg.Period))
	}
	return g.cfg.Rate
}

// hotShareAt returns the hot class's share of arrivals at time t.
func (g *Generator) hotShareAt(t float64) float64 {
	uniform := 1 / float64(g.cfg.Classes)
	if g.cfg.Shape != Skew {
		return uniform
	}
	frac := t / g.cfg.Horizon
	if frac > 1 {
		frac = 1
	}
	return uniform + (g.cfg.HotShare-uniform)*frac
}

// Next returns the next arrival, or ok=false once the horizon is
// passed. Callers drain it as an iterator.
func (g *Generator) Next() (Arrival, bool) {
	for {
		// Exponential gap at the peak rate via inverse transform.
		u := g.rng.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		g.t += -math.Log(u) / g.peak
		if g.t >= g.cfg.Horizon {
			return Arrival{}, false
		}
		// Thinning: accept with the instantaneous intensity ratio. The
		// class draw burns RNG state only for accepted candidates, so the
		// accepted stream stays aligned across runs.
		if g.rng.Float64()*g.peak >= g.RateAt(g.t) {
			continue
		}
		return Arrival{Time: g.t, Class: g.drawClass(g.t)}, true
	}
}

// drawClass picks the arrival's class under the current mix: the hot
// class holds hotShareAt(t), the rest split the remainder evenly.
func (g *Generator) drawClass(t float64) int {
	if g.cfg.Classes == 1 {
		return 0
	}
	hot := g.hotShareAt(t)
	u := g.rng.Float64()
	if u < hot {
		return g.cfg.HotClass
	}
	u = (u - hot) / (1 - hot) // rescale to [0,1) over the cold classes
	idx := int(u * float64(g.cfg.Classes-1))
	if idx >= g.cfg.Classes-1 {
		idx = g.cfg.Classes - 2
	}
	// Skip over the hot class when mapping onto class indices.
	if idx >= g.cfg.HotClass {
		idx++
	}
	return idx
}
