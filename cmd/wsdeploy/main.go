// Command wsdeploy computes a deployment of a web-service workflow onto a
// server network using one of the paper's algorithms, reports its cost
// metrics, and optionally simulates the deployment and exports Graphviz
// DOT.
//
// Usage:
//
//	wsdeploy -workflow wf.json -network net.json -algo holm
//	wsdeploy -demo -algo portfolio      # built-in Fig. 1 example: race every algorithm,
//	                                    # print the leaderboard, keep the winner
//	wsdeploy -demo -algo holm -simulate # Monte-Carlo simulate the chosen mapping
//	wsdeploy -demo -algo portfolio -timeout 2s -parallel 4
//	                                    # the same race under a deadline, on 4 workers
//	wsdeploy -demogeo -algo geoplace    # 2-region fixture, partition-then-place
//	wsdeploy -autopilot -traffic skew:6:120
//	                                    # closed-loop drift study, off vs on
//
// Workflow and network files use the JSON schema of internal/wfio (see
// `wfgen` to generate examples).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"wsdeploy/internal/autopilot"
	"wsdeploy/internal/chaos"
	"wsdeploy/internal/core"
	"wsdeploy/internal/cost"
	"wsdeploy/internal/deploy"
	"wsdeploy/internal/engine"
	"wsdeploy/internal/gen"
	"wsdeploy/internal/network"
	"wsdeploy/internal/obs"
	"wsdeploy/internal/sim"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/wdl"
	"wsdeploy/internal/wfio"
	"wsdeploy/internal/workflow"
)

// cliTracer and cliFlightDump carry the -tracefile / -flightdump setup
// to the subcommands. Both stay nil unless asked for, which keeps every
// instrumented path at its zero-cost disabled state.
var (
	cliTracer     *obs.Tracer
	cliFlightDump io.Writer
)

func main() {
	var (
		wfPath   = flag.String("workflow", "", "workflow JSON file (omit with -demo)")
		netPath  = flag.String("network", "", "network JSON file (omit with -demo)")
		algoName = flag.String("algo", "holm", fmt.Sprintf("algorithm: \"portfolio\" or one of %v", core.KnownAlgorithms()))
		demo     = flag.Bool("demo", false, "use the paper's Fig. 1 workflow over a 5-server 100 Mbps bus")
		demoGeo  = flag.Bool("demogeo", false, "use a built-in 2-region fixture with a chatty cross-region workflow")
		seed     = flag.Uint64("seed", 1, "random seed for seeded algorithms")
		timeout  = flag.Duration("timeout", 0, "planning deadline (0 = none); on expiry the best mapping so far is kept")
		parallel = flag.Int("parallel", 0, "portfolio worker-pool size (0 = GOMAXPROCS)")
		simulate = flag.Bool("simulate", false, "Monte-Carlo simulate the resulting mapping")
		simRuns  = flag.Int("simruns", 1000, "simulation runs")
		outPath  = flag.String("out", "", "write the mapping as JSON to this file")
		dotPath  = flag.String("dot", "", "write the deployed workflow as Graphviz DOT to this file")
		trace    = flag.Bool("trace", false, "print the event trace and Gantt chart of one simulated execution")
		explain  = flag.Bool("explain", false, "print a cost breakdown: per-server loads vs ideal and the top network crossings")
		diffPath = flag.String("diff", "", "print the migration plan from the mapping JSON in this file to the computed one")
		chaosArg = flag.String("chaos", "", `run the mapping under a fault plan: a plan JSON file, or "gen" for a random plan`)
		chaosBk  = flag.String("chaosbackend", "sim", "chaos backend: sim (virtual clock) or fabric (real HTTP hosts)")
		chaosRt  = flag.Float64("chaosrate", 0.1, `per-server crash rate for -chaos gen, crashes per virtual second`)
		chaosHl  = flag.Bool("chaosheal", true, "run the self-healing supervisor during the chaos episode")
		traceOut = flag.String("tracefile", "", "write every finished span (engine, sim, chaos) to this file as JSONL")
		dumpOut  = flag.String("flightdump", "", "write a flight-recorder dump (JSONL) here whenever a chaos incident is handled")
		autoRun  = flag.Bool("autopilot", false, "run the closed-loop drift study (seeded traffic, autopilot off vs on) instead of planning once")
		traffic  = flag.String("traffic", "skew", "traffic for -autopilot as shape[:rate[:horizon]], shape steady|diurnal|skew")
	)
	flag.Parse()
	if *traceOut != "" || *dumpOut != "" {
		var exps []obs.Exporter
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wsdeploy:", err)
				os.Exit(1)
			}
			defer f.Close()
			exps = append(exps, obs.NewJSONLExporter(f))
		}
		if *dumpOut != "" {
			f, err := os.Create(*dumpOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wsdeploy:", err)
				os.Exit(1)
			}
			defer f.Close()
			cliFlightDump = f
		}
		cliTracer = obs.NewTracer(obs.NewFlightRecorder(obs.DefaultFlightSize), exps...)
	}
	if *autoRun {
		if err := runAutopilot(*wfPath, *netPath, *demo, *traffic, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "wsdeploy:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*wfPath, *netPath, *algoName, *demo, *demoGeo, *seed, *timeout, *parallel, *simulate, *simRuns, *outPath, *dotPath, *trace, *explain, *diffPath, *chaosArg, *chaosBk, *chaosRt, *chaosHl); err != nil {
		fmt.Fprintln(os.Stderr, "wsdeploy:", err)
		os.Exit(1)
	}
}

func run(wfPath, netPath, algoName string, demo, demoGeo bool, seed uint64, timeout time.Duration, parallel int, simulate bool, simRuns int, outPath, dotPath string, trace, explain bool, diffPath, chaosArg, chaosBackend string, chaosRate float64, chaosHeal bool) error {
	w, n, err := loadInputs(wfPath, netPath, demo, demoGeo)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n\n", w, n)

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	var mp deploy.Mapping
	var display string
	if algoName == "portfolio" {
		mp, display, err = runPortfolio(ctx, w, n, seed, parallel)
		if err != nil {
			return err
		}
	} else {
		algo, err := core.NewByName(algoName, seed)
		if err != nil {
			return err
		}
		mp, err = core.DeployContext(ctx, algo, w, n)
		if err != nil && mp == nil {
			return err
		}
		if err != nil {
			fmt.Printf("deadline expired; keeping the best mapping found so far\n\n")
		}
		display = algo.Name()
	}
	model := cost.NewModel(w, n)
	res := model.Evaluate(mp)
	fmt.Printf("algorithm: %s\nmapping:   %s\n\n", display, mp)
	fmt.Printf("execution time: %.6f s\ntime penalty:   %.6f s\ncombined cost:  %.6f s\n",
		res.ExecTime, res.TimePenalty, res.Combined)
	for s, l := range res.Loads {
		fmt.Printf("  load %-4s %.6f s\n", n.Servers[s].Name, l)
	}

	if simulate {
		sr, err := sim.Simulate(w, n, mp, sim.Config{Runs: simRuns, Seed: seed, Tracer: cliTracer})
		if err != nil {
			return err
		}
		fmt.Printf("\nsimulation (%d runs):\n  makespan mean %.6f s (p5 %.6f, p95 %.6f)\n  serial time mean %.6f s (analytic %.6f)\n  mean bits on network %.0f\n",
			sr.Runs, sr.Makespan.Mean, sr.Makespan.P05, sr.Makespan.P95,
			sr.SerialTime.Mean, res.ExecTime, sr.MeanBits)
	}

	if explain {
		fmt.Printf("\n%s", model.Explain(mp, 5))
	}

	if chaosArg != "" {
		if err := runChaos(w, n, mp, chaosArg, chaosBackend, chaosRate, chaosHeal, seed); err != nil {
			return err
		}
	}

	if diffPath != "" {
		f, err := os.Open(diffPath)
		if err != nil {
			return err
		}
		old, err := wfio.DecodeMapping(f)
		f.Close()
		if err != nil {
			return err
		}
		moves, err := deploy.Diff(w, old, mp)
		if err != nil {
			return err
		}
		fmt.Printf("\nmigration plan from %s:\n%s", diffPath, deploy.FormatPlan(w, moves))
	}

	if trace {
		events, rr := sim.Trace(w, n, mp, stats.NewRNG(seed), sim.Config{})
		fmt.Printf("\ntrace of one execution (makespan %.6fs):\n%s\n%s",
			rr.Makespan, sim.FormatTrace(w, events), sim.Gantt(w, n, mp, events))
	}

	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := wfio.EncodeMapping(f, mp); err != nil {
			return err
		}
		fmt.Printf("\nmapping written to %s\n", outPath)
	}
	if dotPath != "" {
		if err := os.WriteFile(dotPath, []byte(wfio.WorkflowDOT(w, mp)), 0o644); err != nil {
			return err
		}
		fmt.Printf("DOT written to %s\n", dotPath)
	}
	return nil
}

// parseTraffic parses the -traffic spec: shape[:rate[:horizon]], with
// defaults from the demo drift study.
func parseTraffic(spec string) (autopilot.TrafficConfig, error) {
	parts := strings.Split(spec, ":")
	shape, err := autopilot.ParseShape(parts[0])
	if err != nil {
		return autopilot.TrafficConfig{}, err
	}
	cfg := autopilot.DemoTraffic(shape)
	if len(parts) > 1 {
		if cfg.Rate, err = strconv.ParseFloat(parts[1], 64); err != nil || cfg.Rate <= 0 {
			return cfg, fmt.Errorf("bad traffic rate %q", parts[1])
		}
	}
	if len(parts) > 2 {
		if cfg.Horizon, err = strconv.ParseFloat(parts[2], 64); err != nil || cfg.Horizon <= 0 {
			return cfg, fmt.Errorf("bad traffic horizon %q", parts[2])
		}
	}
	if len(parts) > 3 {
		return cfg, fmt.Errorf("traffic spec %q has too many fields (want shape[:rate[:horizon]])", spec)
	}
	return cfg, nil
}

// runAutopilot runs the closed-loop drift study on the simulator: the
// same seeded traffic with the autopilot off (baseline) and on, printed
// window by window. With -demo, or when no workflow is given, the
// built-in three-class drift scenario runs; otherwise the loaded
// workflow is driven as a single class on the loaded network.
func runAutopilot(wfPath, netPath string, demo bool, trafficSpec string, seed uint64) error {
	tc, err := parseTraffic(trafficSpec)
	if err != nil {
		return err
	}
	var classes []autopilot.ClassSpec
	var n *network.Network
	if demo || wfPath == "" {
		if classes, n, err = autopilot.DemoScenario(); err != nil {
			return err
		}
	} else {
		w, loaded, err := loadInputs(wfPath, netPath, false, false)
		if err != nil {
			return err
		}
		classes, n = []autopilot.ClassSpec{{ID: w.Name, Workflow: w}}, loaded
	}
	lc := autopilot.LoopConfig{Traffic: tc, Pilot: autopilot.Config{Tracer: cliTracer}}

	baseline, err := autopilot.Run(classes, n, lc, autopilot.NewSimBackend(seed))
	if err != nil {
		return err
	}
	lc.Enabled = true
	res, err := autopilot.Run(classes, n, lc, autopilot.NewSimBackend(seed))
	if err != nil {
		return err
	}

	fmt.Printf("closed-loop drift study: %d classes on %d servers, %s traffic at %g/s over %gs (seed %d)\n\n",
		len(classes), n.N(), tc.Shape, tc.Rate, tc.Horizon, seed)
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "t\tarrivals\tdrift off\tdrift on\tpenalty off\tpenalty on\taction")
	for i, w := range res.Windows {
		action := "-"
		if w.Level != autopilot.LevelNone {
			action = fmt.Sprintf("%s (%d moves)", w.Level, w.Moves)
		}
		fmt.Fprintf(tw, "%.0f\t%d\t%.4f\t%.4f\t%.4f\t%.4f\t%s\n",
			w.Time, w.Arrivals, baseline.Windows[i].Drift, w.Drift,
			baseline.Windows[i].Penalty, w.Penalty, action)
	}
	tw.Flush()
	fmt.Printf("\narrivals %d  actions %d  migrations %d\n", res.Arrivals, len(res.Actions), res.Migrations)
	fmt.Printf("tail time penalty: %.4f s/window disabled vs %.4f enabled\n", baseline.TailPenalty, res.TailPenalty)
	fmt.Printf("tail drift:        %.4f disabled vs %.4f enabled\n", baseline.TailDrift, res.TailDrift)
	return nil
}

// runChaos executes one chaos episode of the computed mapping — a plan
// of timed faults, optionally repaired live by the self-healing
// supervisor — and prints the outcome and the incident log.
func runChaos(w *workflow.Workflow, n *network.Network, mp deploy.Mapping, planSpec, backend string, rate float64, heal bool, seed uint64) error {
	var plan *chaos.Plan
	if planSpec == "gen" {
		base, err := chaos.RunSim(w, n, mp, &chaos.Plan{}, chaos.RunConfig{Seed: seed})
		if err != nil {
			return err
		}
		plan = chaos.Generate(chaos.GenerateConfig{
			Servers: n.N(),
			Horizon: 2 * base.Run.Makespan,
			Rate:    rate,
			Seed:    seed,
		})
	} else {
		var err error
		if plan, err = chaos.LoadPlan(planSpec); err != nil {
			return err
		}
	}
	fmt.Printf("\nchaos episode (%s backend, %d fault events, self-heal %v):\n",
		backend, len(plan.Events), heal)

	cfg := chaos.RunConfig{Seed: seed, SelfHeal: heal, Tracer: cliTracer, FlightDump: cliFlightDump}
	var log *chaos.Log
	switch backend {
	case "sim":
		out, err := chaos.RunSim(w, n, mp, plan, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("  completed %v  makespan %.6fs  executed %d ops  lost %d ops, %d messages\n",
			out.Run.Completed, out.Run.Makespan, out.Run.ExecutedOps,
			out.Run.LostOps, out.Run.LostMessages)
		fmt.Printf("  final mapping: %s\n", out.FinalMapping)
		log = out.Log
	case "fabric":
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		out, err := chaos.RunFabric(ctx, w, n, mp, plan, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("  makespan %s (wall)  executed %d ops  %d messages, %d bytes on wire\n",
			out.Run.Makespan, out.Run.ExecutedOps, out.Run.MessagesSent, out.Run.BytesOnWire)
		fmt.Printf("  retries %d  drops %d  rejections %d  give-ups %d  remaps %d\n",
			out.Stats.Retries, out.Stats.Drops, out.Stats.Rejections,
			out.Stats.GiveUps, out.Stats.Remaps)
		fmt.Printf("  final mapping: %s\n", out.FinalMapping)
		log = out.Log
	default:
		return fmt.Errorf("unknown chaos backend %q (sim|fabric)", backend)
	}
	if log.Len() == 0 {
		fmt.Println("  no incidents")
		return nil
	}
	fmt.Printf("  incident log:\n%s\n", log.Canonical())
	return nil
}

// loadInputs reads the workflow and network from files, or builds the
// demo pair.
func loadInputs(wfPath, netPath string, demo, demoGeo bool) (*workflow.Workflow, *network.Network, error) {
	if demo || demoGeo {
		if wfPath != "" || netPath != "" {
			return nil, nil, fmt.Errorf("-demo/-demogeo conflicts with -workflow/-network")
		}
		if demo && demoGeo {
			return nil, nil, fmt.Errorf("-demo conflicts with -demogeo")
		}
		if demoGeo {
			return geoDemo()
		}
		w := gen.MotivatingExample()
		n, err := network.NewBus("ministry", []float64{1e9, 2e9, 2e9, 3e9, 1e9}, 100*gen.Mbps, 0.0001)
		return w, n, err
	}
	if wfPath == "" || netPath == "" {
		return nil, nil, fmt.Errorf("need -workflow and -network (or -demo/-demogeo)")
	}
	var w *workflow.Workflow
	if strings.HasSuffix(wfPath, ".wdl") {
		// Workflow definition language source (see internal/wdl).
		src, err := os.ReadFile(wfPath)
		if err != nil {
			return nil, nil, err
		}
		w, err = wdl.Parse(string(src))
		if err != nil {
			return nil, nil, err
		}
	} else {
		wf, err := os.Open(wfPath)
		if err != nil {
			return nil, nil, err
		}
		defer wf.Close()
		w, err = wfio.DecodeWorkflow(wf)
		if err != nil {
			return nil, nil, err
		}
	}
	nf, err := os.Open(netPath)
	if err != nil {
		return nil, nil, err
	}
	defer nf.Close()
	n, err := wfio.DecodeNetwork(nf)
	if err != nil {
		return nil, nil, err
	}
	return w, n, nil
}

// geoDemo builds the -demogeo pair: two 2-server gigabit regions joined
// by a slow WAN link, running two chatty 3-op pipelines that exchange
// megabyte messages internally and a 100-byte result across the bridge.
// Single-site planners spread the pipelines over the WAN; geoplace keeps
// each inside one region.
func geoDemo() (*workflow.Workflow, *network.Network, error) {
	n, err := network.NewRegions("geodemo",
		[]network.RegionSpec{
			{Name: "eu", Powers: []float64{2e9, 1e9}, SpeedBps: 1000 * gen.Mbps, PropDelay: 50e-6},
			{Name: "us", Powers: []float64{2e9, 1e9}, SpeedBps: 1000 * gen.Mbps, PropDelay: 50e-6},
		},
		[]network.WANLink{{A: "eu", B: "us", SpeedBps: 50 * gen.Mbps, PropDelay: 30e-3}})
	if err != nil {
		return nil, nil, err
	}
	b := workflow.NewBuilder("geodemo")
	const big = 8e6 // 1 MB messages inside a pipeline
	ingest := b.Op("ingest", 2e9)
	parse := b.Op("parse", 1e9)
	index := b.Op("index", 2e9)
	b.Chain(big, ingest, parse, index)
	rank := b.Op("rank", 2e9)
	score := b.Op("score", 1e9)
	serve := b.Op("serve", 2e9)
	b.Link(index, rank, 800) // 100-byte cross-pipeline handoff
	b.Chain(big, rank, score, serve)
	w, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return w, n, nil
}

// runPortfolio races the whole registry through the portfolio engine and
// prints the leaderboard, one row per algorithm with its metrics and the
// inapplicable ones as skipped rows, before returning the winning
// mapping.
func runPortfolio(ctx context.Context, w *workflow.Workflow, n *network.Network, seed uint64, parallel int) (deploy.Mapping, string, error) {
	eng := engine.New(engine.Options{Parallelism: parallel, Tracer: cliTracer})
	res, err := eng.Run(ctx, engine.Request{Workflow: w, Network: n, Seed: seed})
	if err != nil && !errors.Is(err, engine.ErrDeadline) {
		return nil, "", err
	}
	if errors.Is(err, engine.ErrDeadline) {
		fmt.Printf("deadline expired; leaderboard holds everything finished in time\n\n")
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rank\talgorithm\texec time (s)\ttime penalty (s)\tcombined (s)\telapsed\tnote")
	for i, p := range res.Leaderboard() {
		note := ""
		switch {
		case p.Err != "":
			note = "skipped: " + p.Err
		case p.Truncated:
			note = "truncated"
		case p.FromCache:
			note = "cached"
		}
		if p.Mapping == nil {
			fmt.Fprintf(tw, "-\t%s\t\t\t\t\t%s\n", p.Name, note)
			continue
		}
		fmt.Fprintf(tw, "%d\t%s\t%.6f\t%.6f\t%.6f\t%s\t%s\n", i+1, p.Name, p.ExecTime, p.TimePenalty, p.Combined, p.Elapsed.Round(time.Microsecond), note)
	}
	tw.Flush()
	fmt.Println()
	if res.Best == nil {
		return nil, "", fmt.Errorf("no algorithm produced a mapping for this configuration")
	}
	return res.Best.Mapping, fmt.Sprintf("portfolio → %s", res.Best.Name), nil
}
