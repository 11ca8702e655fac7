package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkGolden byte-compares got with a committed results file — the
// study's stdout exactly as `go run ./cmd/experiment` prints it.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("..", "..", "results", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("results/%s does not regenerate byte-identically\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestAutopilotGolden pins results/autopilot_drift.txt
// (`go run ./cmd/experiment -exp autopilot -seed 7`).
func TestAutopilotGolden(t *testing.T) {
	rows, err := RunAutopilot(Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "autopilot_drift.txt", RenderAutopilot(rows)+"\n")
}

// TestDiskFaultGolden pins results/diskfault_study.txt
// (`go run ./cmd/experiment -exp diskfault -seed 7`). The sweep's op
// counts are the store's exact write, fsync and rename sequence, so a
// change to how snapshots or WAL compactions reach the disk shows here.
func TestDiskFaultGolden(t *testing.T) {
	study, err := RunDiskFault(Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "diskfault_study.txt", RenderDiskFault(study)+"\n")
}

// TestReconcileStudyGolden pins results/reconcile_study.txt
// (`go run ./cmd/experiment -exp reconcile -seed 2007`). It starts
// fabric hosts, so -short skips it.
func TestReconcileStudyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("starts fabric hosts")
	}
	study, err := RunReconcileStudy(Options{Seed: 2007})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "reconcile_study.txt", RenderReconcile(study)+"\n")
}

// TestChaosGolden pins results/chaos_study.txt
// (`go run ./cmd/experiment -exp chaos -runs 25`).
func TestChaosGolden(t *testing.T) {
	rows, err := RunChaos(Options{Runs: 25, Seed: 2007})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chaos_study.txt", RenderChaos(rows)+"\n")
}

// TestGeoGolden pins results/geo_study.txt
// (`go run ./cmd/experiment -exp geo -runs 50`).
func TestGeoGolden(t *testing.T) {
	fig, rows, err := RunGeo(Options{Runs: 50, Seed: 2007})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "geo_study.txt", RenderTable(fig)+"\n"+RenderGeo(rows)+"\n")
}

// TestPaperGolden pins the paper's sections of
// results/experiments_full.txt. Each case renders one section with the
// CLI's defaults (`go run ./cmd/experiment -exp <name>`, seed 2007) and
// requires it verbatim in that file, starting at the section's header
// line. The file's "(csv written to …)" lines are CLI output between
// sections, not section text.
func TestPaperGolden(t *testing.T) {
	full, err := os.ReadFile(filepath.Join("..", "..", "results", "experiments_full.txt"))
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Seed: 2007}
	figure := func(run func(Options) (Figure, error)) func() (string, error) {
		return func() (string, error) {
			fig, err := run(o)
			return RenderTable(fig), err
		}
	}
	cases := []struct {
		name   string
		render func() (string, error)
	}{
		{"table6", func() (string, error) { return Table6Report(o.Seed, 0), nil }},
		{"fig6", figure(RunFig6)},
		{"fig7", figure(RunFig7)},
		{"fig8", figure(RunFig8)},
		{"lineline", figure(RunLineLine)},
		{"quality", func() (string, error) {
			rows, err := RunQuality(o)
			return RenderQuality(rows), err
		}},
		{"classA", figure(RunClassA)},
		{"classB", figure(RunClassB)},
		{"ksweep", figure(RunKSweep)},
		{"topologies", figure(RunTopologies)},
		{"refiners", figure(RunRefiners)},
		{"flmme-quantile", figure(RunFLMMEQuantile)},
		{"weights", func() (string, error) {
			rows, err := RunWeights(o)
			return RenderWeights(rows), err
		}},
		{"failure", func() (string, error) {
			rows, err := RunFailure(o)
			return RenderFailure(rows), err
		}},
		{"makespan", func() (string, error) {
			rows, err := RunMakespan(o)
			return RenderMakespan(rows), err
		}},
		{"throughput", func() (string, error) {
			rows, err := RunThroughput(o)
			return RenderThroughput(rows), err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.name == "quality" && testing.Short() {
				t.Skip("samples 32,000 mappings per instance")
			}
			got, err := c.render()
			if err != nil {
				t.Fatal(err)
			}
			got += "\n" // the CLI prints each section with fmt.Println
			header, _, _ := strings.Cut(got, "\n")
			at := strings.Index(string(full), header+"\n")
			if at < 0 {
				t.Fatalf("header %q not found in results/experiments_full.txt", header)
			}
			if want := string(full[at:]); !strings.HasPrefix(want, got) {
				t.Fatalf("section %s does not regenerate verbatim\n--- got ---\n%s\n--- want ---\n%s", c.name, got, want[:min(len(want), len(got))])
			}
		})
	}
}
