package exp

import (
	"os"
	"path/filepath"
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
