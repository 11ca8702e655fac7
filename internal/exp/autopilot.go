package exp

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"wsdeploy/internal/autopilot"
	"wsdeploy/internal/gen"
	"wsdeploy/internal/network"
	"wsdeploy/internal/stats"
)

// AutopilotRow is one cell of the closed-loop drift study: a scenario ×
// traffic shape, with the same seeded arrival stream run twice — the
// autopilot disabled (baseline) and enabled.
type AutopilotRow struct {
	Scenario string
	Shape    string
	Arrivals int
	// TailPenaltyOff/On are the measured live Time Penalty (seconds per
	// observation window, averaged over the last quarter of the run)
	// without and with the control loop.
	TailPenaltyOff float64
	TailPenaltyOn  float64
	// TailDriftOff/On are the normalized drift signal over the same tail.
	TailDriftOff float64
	TailDriftOn  float64
	Actions      int
	Migrations   int
}

// balancedFleet builds three statistically identical Class C workflows
// on a generated bus: placements spread cleanly, so observed drift
// stays inside the detector's deadband under shape-only load changes.
func balancedFleet(seed uint64) ([]autopilot.ClassSpec, *network.Network, error) {
	cfg := gen.ClassC()
	var classes []autopilot.ClassSpec
	for i, id := range []string{"wf-a", "wf-b", "wf-c"} {
		w, err := cfg.LinearWorkflow(stats.NewRNG(seed+uint64(i)*17), 6)
		if err != nil {
			return nil, nil, err
		}
		classes = append(classes, autopilot.ClassSpec{ID: id, Workflow: w})
	}
	n, err := cfg.BusNetworkWithSpeed(stats.NewRNG(seed+93), 4, 100*gen.Mbps)
	if err != nil {
		return nil, nil, err
	}
	return classes, n, nil
}

// RunAutopilot runs the closed-loop drift study in two scenarios. The
// balanced fleet under steady and diurnal traffic proves the hysteresis
// deadband: a diurnal swing moves every server's load together, the
// normalized drift signal never leaves the bands, and the loop performs
// zero migrations. The drift-demo fleet (dominant-op classes whose
// balanced placements are lumpy) under skew traffic is the payoff: the
// class mix ramps, the detector fires, and bounded delta plans hold the
// live Time Penalty below the baseline.
func RunAutopilot(o Options) ([]AutopilotRow, error) {
	o = o.withDefaults()
	type study struct {
		scenario string
		shape    autopilot.Shape
	}
	studies := []study{
		{"balanced", autopilot.Steady},
		{"balanced", autopilot.Diurnal},
		{"drift-demo", autopilot.Skew},
	}
	var rows []AutopilotRow
	for _, st := range studies {
		var (
			classes []autopilot.ClassSpec
			n       *network.Network
			err     error
		)
		if st.scenario == "balanced" {
			classes, n, err = balancedFleet(o.Seed + 100)
		} else {
			classes, n, err = autopilot.DemoScenario()
		}
		if err != nil {
			return nil, err
		}
		tc := autopilot.DemoTraffic(st.shape)
		tc.Seed = o.Seed + 8 // distinct from the loop's instance seed
		lc := autopilot.LoopConfig{Traffic: tc}
		base, err := autopilot.Run(classes, n, lc, autopilot.NewSimBackend(o.Seed))
		if err != nil {
			return nil, err
		}
		lc.Enabled = true
		res, err := autopilot.Run(classes, n, lc, autopilot.NewSimBackend(o.Seed))
		if err != nil {
			return nil, err
		}
		rows = append(rows, AutopilotRow{
			Scenario:       st.scenario,
			Shape:          string(st.shape),
			Arrivals:       res.Arrivals,
			TailPenaltyOff: base.TailPenalty,
			TailPenaltyOn:  res.TailPenalty,
			TailDriftOff:   base.TailDrift,
			TailDriftOn:    res.TailDrift,
			Actions:        len(res.Actions),
			Migrations:     res.Migrations,
		})
	}
	return rows, nil
}

// RenderAutopilot renders autopilot rows as a table.
func RenderAutopilot(rows []AutopilotRow) string {
	var b strings.Builder
	b.WriteString("Closed-loop drift study: autopilot off vs on (tail = last quarter of windows)\n")
	tw := tabwriter.NewWriter(&b, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\tshape\tarrivals\ttail penalty off\ttail penalty on\ttail drift off\ttail drift on\tactions\tmigrations")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.4f\t%.4f\t%.4f\t%.4f\t%d\t%d\n",
			r.Scenario, r.Shape, r.Arrivals, r.TailPenaltyOff, r.TailPenaltyOn,
			r.TailDriftOff, r.TailDriftOn, r.Actions, r.Migrations)
	}
	tw.Flush()
	return b.String()
}
