// Command experiment regenerates the paper's evaluation section: the
// Fig. 6 Line–Bus scatter, the Fig. 7/8 Graph–Bus results, the §4.2
// solution-quality deviations, the Table 6 configuration audit, and the
// Class A/B sweeps the paper describes but omits.
//
// Usage:
//
//	experiment -exp fig6                 # one experiment at paper scale
//	experiment -exp all -runs 10         # everything, reduced runs
//	experiment -exp quality -samples 32000
//	experiment -exp fig6 -scatter        # add ASCII scatter plots
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"wsdeploy/internal/exp"
)

// order lists every experiment run accepts, in the order -exp all
// runs them.
var order = []string{
	"table6", "fig6", "fig7", "fig8", "lineline", "quality",
	"classA", "classB",
	"ksweep", "topologies", "refiners", "flmme-quantile", "weights", "failure", "makespan",
	"throughput", "portfolio", "chaos", "autopilot", "geo", "reconcile", "diskfault",
}

func main() {
	var (
		which   = flag.String("exp", "all", "experiment: "+strings.Join(order, "|")+"|all")
		runs    = flag.Int("runs", 50, "instances per configuration (paper: 50)")
		ops     = flag.Int("ops", 19, "workflow operations M (paper: 19)")
		servers = flag.String("servers", "3,4,5", "comma-separated server counts to sweep")
		bus     = flag.String("bus", "1,100", "comma-separated bus speeds in Mbps")
		samples = flag.Int("samples", 32000, "sampling budget for quality assessment (paper: 32000)")
		seed    = flag.Uint64("seed", 2007, "experiment seed")
		scatter = flag.Bool("scatter", false, "render ASCII scatter plots")
		csvDir  = flag.String("csv", "", "also write <experiment>.csv files into this directory")
		htmlOut = flag.String("html", "", "also write an HTML report with SVG scatter plots to this file")
	)
	flag.Parse()

	srv, err := parseInts(*servers)
	if err != nil {
		fatal(err)
	}
	busSpeeds, err := parseFloats(*bus)
	if err != nil {
		fatal(err)
	}
	o := exp.Options{
		Runs:          *runs,
		Operations:    *ops,
		Servers:       srv,
		BusSpeedsMbps: busSpeeds,
		Samples:       *samples,
		Seed:          *seed,
	}
	if err := run(*which, o, *scatter, *csvDir, *htmlOut); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiment:", err)
	os.Exit(1)
}

func run(which string, o exp.Options, scatter bool, csvDir, htmlOut string) error {
	var htmlFigs []exp.Figure
	var htmlQuality []exp.QualityResult
	figures := map[string]func(exp.Options) (exp.Figure, error){
		"fig6":           exp.RunFig6,
		"fig7":           exp.RunFig7,
		"fig8":           exp.RunFig8,
		"lineline":       exp.RunLineLine,
		"classA":         exp.RunClassA,
		"classB":         exp.RunClassB,
		"refiners":       exp.RunRefiners,
		"flmme-quantile": exp.RunFLMMEQuantile,
		"ksweep":         exp.RunKSweep,
		"topologies":     exp.RunTopologies,
		"portfolio":      exp.RunPortfolio,
	}
	selected := []string{which}
	if which == "all" {
		selected = order
	}
	for _, name := range selected {
		switch name {
		case "table6":
			fmt.Println(exp.Table6Report(o.Seed, 0))
		case "quality":
			results, err := exp.RunQuality(o)
			if err != nil {
				return err
			}
			fmt.Println(exp.RenderQuality(results))
			htmlQuality = results
			if csvDir != "" {
				if err := writeCSVFile(csvDir, "quality", func(f *os.File) error {
					return exp.WriteQualityCSV(f, results)
				}); err != nil {
					return err
				}
			}
		case "weights":
			rows, err := exp.RunWeights(o)
			if err != nil {
				return err
			}
			fmt.Println(exp.RenderWeights(rows))
		case "failure":
			rows, err := exp.RunFailure(o)
			if err != nil {
				return err
			}
			fmt.Println(exp.RenderFailure(rows))
		case "makespan":
			rows, err := exp.RunMakespan(o)
			if err != nil {
				return err
			}
			fmt.Println(exp.RenderMakespan(rows))
		case "throughput":
			rows, err := exp.RunThroughput(o)
			if err != nil {
				return err
			}
			fmt.Println(exp.RenderThroughput(rows))
		case "chaos":
			rows, err := exp.RunChaos(o)
			if err != nil {
				return err
			}
			fmt.Println(exp.RenderChaos(rows))
		case "reconcile":
			study, err := exp.RunReconcileStudy(o)
			if err != nil {
				return err
			}
			fmt.Println(exp.RenderReconcile(study))
		case "diskfault":
			study, err := exp.RunDiskFault(o)
			if err != nil {
				return err
			}
			fmt.Println(exp.RenderDiskFault(study))
		case "autopilot":
			rows, err := exp.RunAutopilot(o)
			if err != nil {
				return err
			}
			fmt.Println(exp.RenderAutopilot(rows))
		case "geo":
			fig, rows, err := exp.RunGeo(o)
			if err != nil {
				return err
			}
			fmt.Println(exp.RenderTable(fig))
			fmt.Println(exp.RenderGeo(rows))
			htmlFigs = append(htmlFigs, fig)
			if csvDir != "" {
				if err := writeCSVFile(csvDir, "geo", func(f *os.File) error {
					return exp.WriteCSV(f, fig)
				}); err != nil {
					return err
				}
			}
		default:
			runner, ok := figures[name]
			if !ok {
				return fmt.Errorf("unknown experiment %q", name)
			}
			fig, err := runner(o)
			if err != nil {
				return err
			}
			fmt.Println(exp.RenderTable(fig))
			htmlFigs = append(htmlFigs, fig)
			if scatter {
				for _, s := range fig.Series {
					fmt.Println(exp.RenderScatter(s))
				}
			}
			if csvDir != "" {
				if err := writeCSVFile(csvDir, name, func(f *os.File) error {
					return exp.WriteCSV(f, fig)
				}); err != nil {
					return err
				}
			}
		}
	}
	if htmlOut != "" && (len(htmlFigs) > 0 || len(htmlQuality) > 0) {
		f, err := os.Create(htmlOut)
		if err != nil {
			return err
		}
		defer f.Close()
		title := fmt.Sprintf("wsdeploy reproduction report (seed %d, %d runs)", o.Seed, o.Runs)
		if err := exp.WriteHTML(f, title, htmlFigs, htmlQuality); err != nil {
			return err
		}
		fmt.Printf("(html report written to %s)\n", htmlOut)
	}
	return nil
}

// writeCSVFile creates dir/name.csv and streams the experiment's rows
// into it.
func writeCSVFile(dir, name string, write func(*os.File) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	fmt.Printf("(csv written to %s)\n\n", path)
	return nil
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(csv string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(csv, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}
