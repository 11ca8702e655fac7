// Command wsbench is the end-to-end benchmark of the wsdeployd daemon.
//
// It builds cmd/wsdeployd from source, starts fresh daemons on loopback
// ports with a durable data directory and per-record fsync, and drives
// one of four workloads from a single client process holding at most
// nproc keep-alive connections. Load is an open-loop schedule drawn from
// the seed, each request timed from its due time; a closed loop then
// measures peak throughput, and a kill -9 plus restart checks that
// nothing acknowledged was lost. Every response is checked.
//
//	wsbench --workload deploy-cached --seed 3 --seconds 15 --trace 0
//	wsbench run -label mybase [-seed N] [-trace]
//	wsbench compare bench/results/a.json bench/results/b.json
//
// The first form is one run: the end-to-end metrics (or, with --trace 1,
// the per-layer metrics of the traced in-process run) are printed, the
// last line being one JSON object. run performs three trials of every
// workload, interleaved round-robin, and writes bench/results/<label>.json
// (and with -trace the spans file); compare judges two such files
// against the bounds in BENCHMARK.json. See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wsbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return runAll(ctx, args[1:])
		case "compare":
			return compareCmd(args[1:])
		}
	}
	return runOne(ctx, args)
}

// errIncorrect reports a run whose outputs failed a check; its result is
// still printed.
var errIncorrect = errors.New("output checks failed")

// prepare finds the repository, reads BENCHMARK.json and builds the
// daemon into .bench_build.
func prepare() (root string, bf *benchFile, e *env, err error) {
	if root, err = findRoot(); err != nil {
		return
	}
	if bf, err = loadBenchFile(root); err != nil {
		return
	}
	out := filepath.Join(root, ".bench_build")
	e = &env{tmp: filepath.Join(out, "tmp"), conns: runtime.NumCPU()}
	if err = os.MkdirAll(e.tmp, 0o755); err != nil {
		return
	}
	e.bin, err = buildDaemon(root, out)
	return
}

// runOne is one run of one workload, as the benchmark's command.
func runOne(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("wsbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed of every generated input and schedule")
	seconds := fs.Float64("seconds", 0, "measured open-loop seconds (0: run_seconds from BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: the traced per-layer run instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, err := workloadByName(*name)
	if err != nil {
		return err
	}
	root, bf, e, err := prepare()
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = float64(bf.RunSeconds)
	}
	out := result{Metrics: map[string]value{}}
	if *trace == 1 {
		tr, err := runTrace(ctx, e.tmp, wl, *seed, time.Duration(*seconds*float64(time.Second)))
		if err != nil {
			return err
		}
		dir := filepath.Join(root, ".bench_build", "spans")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", wl.name, *seed))
		if err := writeSpansFile(path, tr.spans); err != nil {
			return err
		}
		printLayers(wl.name, tr)
		fmt.Printf("spans: %s (%d)\n", path, len(tr.spans))
		out.Attempted, out.Failed, out.Correct = tr.Attempted, tr.Failed, len(tr.Checks) == 0
		for _, m := range bf.PerLayer {
			v, ok := tr.Layers[m.Name]
			if !ok {
				return fmt.Errorf("BENCHMARK.json names per-layer metric %s, which the traced run does not produce", m.Name)
			}
			out.Metrics[m.Name] = value{v, m.Unit}
		}
		printChecks(tr.Checks, nil)
	} else {
		t, err := runTrial(ctx, e, wl, *seed, phasesFor(*seconds))
		if err != nil {
			return err
		}
		sum, notes := summarize([]*trial{t})
		printSummary(wl.name, sum, notes, genLateP99([]*trial{t}))
		out.Attempted, out.Failed, out.Correct = t.Attempted, t.Failed, len(t.Checks) == 0
		for _, m := range bf.EndToEnd {
			s, ok := sum[m.Name]
			if !ok {
				return fmt.Errorf("no value for end-to-end metric %s (%s)", m.Name, strings.Join(notes, "; "))
			}
			out.Metrics[m.Name] = value{s.Value, m.Unit}
		}
		printChecks(t.Checks, t.Failures)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return errIncorrect
	}
	return nil
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// trialsPerWorkload is how many trials wsbench run makes of each
// workload, and trialSeconds the open loop of each.
const (
	trialsPerWorkload = 3
	trialSeconds      = 15
)

// step is one trial in a run's order.
type step struct {
	workload *workload
	trial    int
}

// trialOrder interleaves trials round-robin across workloads (W1 W2 W3
// W4 W1 ...), so drift of the host over the run spreads evenly.
func trialOrder(wls []*workload, trials int) []step {
	var out []step
	for t := 0; t < trials; t++ {
		for _, w := range wls {
			out = append(out, step{workload: w, trial: t})
		}
	}
	return out
}

// runAll is wsbench run: every workload, trialsPerWorkload trials each,
// then optionally the traced pass, written to bench/results/<label>.json.
func runAll(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	label := fs.String("label", "", "results name: writes bench/results/<label>.json (required)")
	seed := fs.Uint64("seed", 1, "base seed; trial t uses seed+t")
	traced := fs.Bool("trace", false, "also run the traced per-layer pass and write <label>.spans.jsonl")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *label == "" || strings.ContainsAny(*label, `/\`) {
		return fmt.Errorf("run needs a plain -label")
	}
	root, _, e, err := prepare()
	if err != nil {
		return err
	}
	ph := phasesFor(trialSeconds)
	rf := &resultsFile{
		Label: *label, Host: host(*seed), Trials: trialsPerWorkload, Setups: ph.setups,
		WarmupS: ph.warmup.Seconds(), OpenS: ph.open.Seconds(), ClosedS: ph.closed.Seconds(),
		Workloads: map[string]*workloadResult{},
	}
	start := time.Now()
	trials := map[string][]*trial{}
	incorrect := false
	for _, st := range trialOrder(workloads, trialsPerWorkload) {
		t, err := runTrial(ctx, e, st.workload, *seed+uint64(st.trial), ph)
		if err != nil {
			return fmt.Errorf("%s trial %d: %w", st.workload.name, st.trial, err)
		}
		trials[st.workload.name] = append(trials[st.workload.name], t)
		fmt.Printf("[%5.0fs] %-16s trial %d: p50 %.3f ms, ok %.2f ops/s, peak %.2f ops/s, failed %d/%d\n",
			time.Since(start).Seconds(), st.workload.name, st.trial, t.Metrics["p50_ms"], t.Metrics["ok_rps"],
			t.Metrics["peak_rps"], t.Failed, t.Attempted)
		printChecks(t.Checks, t.Failures)
		incorrect = incorrect || len(t.Checks) > 0
	}
	for _, wl := range workloads {
		ts := trials[wl.name]
		sum, notes := summarize(ts)
		late := genLateP99(ts)
		wr := &workloadResult{Metrics: sum, Notes: notes, Trials: ts}
		if !math.IsNaN(late) {
			wr.GenLateP99Ms = &late
		}
		rf.Workloads[wl.name] = wr
		printSummary(wl.name, sum, notes, late)
	}
	dir := filepath.Join(root, "bench", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if *traced {
		var spans []span
		for _, wl := range workloads {
			tr, err := runTrace(ctx, e.tmp, wl, *seed, ph.open/2)
			if err != nil {
				return err
			}
			rf.Workloads[wl.name].Trace = tr
			spans = append(spans, tr.spans...)
			printLayers(wl.name, tr)
			printChecks(tr.Checks, nil)
			incorrect = incorrect || len(tr.Checks) > 0
		}
		if err := writeSpansFile(filepath.Join(dir, *label+".spans.jsonl"), spans); err != nil {
			return err
		}
	}
	path := filepath.Join(dir, *label+".json")
	if err := writeJSONFile(path, rf); err != nil {
		return err
	}
	fmt.Printf("wrote %s in %.0fs\n", path, time.Since(start).Seconds())
	if incorrect {
		return errIncorrect
	}
	return nil
}

func compareCmd(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: wsbench compare <base.json> <head.json>")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	bf, err := loadBenchFile(root)
	if err != nil {
		return err
	}
	base, err := readResults(args[0])
	if err != nil {
		return err
	}
	head, err := readResults(args[1])
	if err != nil {
		return err
	}
	if worse := compare(os.Stdout, bf, base, head); worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}

func writeSpansFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printSummary(workload string, sum map[string]summary, notes []string, lateP99 float64) {
	for _, def := range e2eDefs {
		if s, ok := sum[def.name]; ok {
			n := ""
			if s.N > 0 {
				n = fmt.Sprintf("  (%d samples)", s.N)
			}
			fmt.Printf("%-16s %-17s %12.4f %-6s [%.4f-%.4f]%s\n", workload, def.name, s.Value, def.unit, s.Min, s.Max, n)
		}
	}
	for _, n := range notes {
		fmt.Printf("%-16s note: %s\n", workload, n)
	}
	switch {
	case math.IsNaN(lateP99):
		fmt.Printf("%-16s generator: too few sleeps for a p99 wake lateness\n", workload)
	case lateP99 > 2:
		fmt.Printf("%-16s generator: FLAGGED, p99 wake lateness %.3f ms > 2 ms\n", workload, lateP99)
	default:
		fmt.Printf("%-16s generator: p99 wake lateness %.3f ms\n", workload, lateP99)
	}
}

func printLayers(workload string, tr *traceResult) {
	for _, def := range layerDefs() {
		fmt.Printf("%-16s %-34s %14.4f %s\n", workload, def.name, tr.Layers[def.name], def.unit)
	}
}

func printChecks(checks, failures []string) {
	for _, c := range checks {
		fmt.Println("FAILED CHECK:", c)
	}
	for _, f := range failures {
		fmt.Println("failed operation:", f)
	}
}
