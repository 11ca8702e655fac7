package exp

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"wsdeploy/internal/autopilot"
	"wsdeploy/internal/chaos"
	"wsdeploy/internal/reconcile"
)

// ReconcileRow summarizes one backend's run of the declarative
// convergence study.
type ReconcileRow struct {
	Backend     string
	Arrivals    int
	Skipped     int
	Incidents   int
	Passes      uint64
	Generation  uint64
	Observed    uint64
	ConvergedAt float64 // virtual seconds; -1 means never converged
	Actions     int
}

// ReconcileStudy is the full orchestration-study artifact: both
// backends' summaries, the sim run's per-window trace, and whether the
// two action logs came out byte-identical (the determinism claim).
type ReconcileStudy struct {
	Rows          []ReconcileRow
	Windows       []reconcile.StudyWindow
	Log           []string
	LogsIdentical bool
}

func rowOf(r *reconcile.StudyResult) ReconcileRow {
	return ReconcileRow{
		Backend:     r.Backend,
		Arrivals:    r.Arrivals,
		Skipped:     r.Skipped,
		Incidents:   r.Incidents,
		Passes:      r.Passes,
		Generation:  r.Generation,
		Observed:    r.Observed,
		ConvergedAt: r.ConvergedAt,
		Actions:     len(r.Log),
	}
}

// RunReconcileStudy drives the declarative reconciler through the
// canonical lifecycle — spec posted at t=0, a crash and a rejoin
// mid-run, a revision at t=20 that shrinks the portfolio — once on the
// discrete-event simulator and once on the live HTTP fabric, and
// verifies both backends converge with byte-identical action logs.
func RunReconcileStudy(o Options) (*ReconcileStudy, error) {
	o = o.withDefaults()
	classes, n, err := autopilot.DemoScenario()
	if err != nil {
		return nil, err
	}
	sp, err := reconcile.SpecFromClasses(n, classes)
	if err != nil {
		return nil, err
	}
	upd := sp
	upd.Workflows = sp.Workflows[:2]
	cfg := reconcile.StudyConfig{
		Spec:     sp,
		Update:   &upd,
		UpdateAt: 20,
		Chaos: []chaos.Event{
			{Time: 8, Kind: chaos.ServerCrash, Server: 1},
			{Time: 30, Kind: chaos.ServerRejoin, Server: 1},
		},
		Traffic: autopilot.TrafficConfig{Rate: 4, Horizon: 40, Seed: o.Seed},
		Seed:    o.Seed,
	}

	simRes, err := reconcile.RunStudy(cfg, autopilot.NewSimBackend(cfg.Seed))
	if err != nil {
		return nil, err
	}
	fabRes, err := reconcile.RunStudy(cfg, autopilot.NewFabricBackend(cfg.Seed, 100*time.Microsecond))
	if err != nil {
		return nil, err
	}

	study := &ReconcileStudy{
		Rows:          []ReconcileRow{rowOf(simRes), rowOf(fabRes)},
		Windows:       simRes.Windows,
		Log:           simRes.Log,
		LogsIdentical: len(simRes.Log) == len(fabRes.Log),
	}
	if study.LogsIdentical {
		for i := range simRes.Log {
			if simRes.Log[i] != fabRes.Log[i] {
				study.LogsIdentical = false
				break
			}
		}
	}
	return study, nil
}

// RenderReconcile formats the study for results/reconcile_study.txt.
func RenderReconcile(s *ReconcileStudy) string {
	var b strings.Builder
	b.WriteString("== Reconcile: declarative convergence under chaos (sim vs fabric) ==\n")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "backend\tarrivals\tskipped\tincidents\tpasses\tgeneration\tobserved\tconverged@\tactions")
	for _, r := range s.Rows {
		conv := "never"
		if r.ConvergedAt >= 0 {
			conv = fmt.Sprintf("t=%.0f", r.ConvergedAt)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t%d\n",
			r.Backend, r.Arrivals, r.Skipped, r.Incidents, r.Passes,
			r.Generation, r.Observed, conv, r.Actions)
	}
	tw.Flush()

	b.WriteString("\nsim windows (reconcile cadence):\n")
	tw = tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "t\tpenalty\tlag\tactions\tarrivals")
	for _, w := range s.Windows {
		fmt.Fprintf(tw, "%.0f\t%.4f\t%d\t%d\t%d\n", w.Time, w.Penalty, w.Lag, w.Actions, w.Arrivals)
	}
	tw.Flush()

	b.WriteString("\naction log (both backends):\n")
	for i, line := range s.Log {
		fmt.Fprintf(&b, "  %2d. %s\n", i+1, line)
	}
	if s.LogsIdentical {
		b.WriteString("\ncross-backend action logs: byte-identical\n")
	} else {
		b.WriteString("\ncross-backend action logs: DIVERGED\n")
	}
	return b.String()
}
