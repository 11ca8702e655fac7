package reconcile

import (
	"reflect"
	"testing"
	"time"

	"wsdeploy/internal/autopilot"
	"wsdeploy/internal/chaos"
)

// studyConfig is the canonical convergence scenario shared by the e2e
// tests and the experiment runner's smoke variant: the drift-demo spec
// posted at t=0, a crash/rejoin pair mid-run, and a revision at t=20
// that drops one workflow class.
func studyConfig(t *testing.T) StudyConfig {
	t.Helper()
	sp := demoSpec(t)
	upd := sp
	upd.Workflows = sp.Workflows[:2]
	return StudyConfig{
		Spec:     sp,
		Update:   &upd,
		UpdateAt: 20,
		Chaos: []chaos.Event{
			{Time: 8, Kind: chaos.ServerCrash, Server: 1},
			{Time: 30, Kind: chaos.ServerRejoin, Server: 1},
		},
		Traffic:  autopilot.TrafficConfig{Rate: 4, Horizon: 40, Seed: 9},
		Interval: 5,
		Seed:     7,
	}
}

// TestStudyConvergesUnderChaosSim is the e2e convergence proof on the
// simulator: a posted spec reaches observedGeneration == generation
// through a crash, a rejoin and a mid-run revision, deterministically.
func TestStudyConvergesUnderChaosSim(t *testing.T) {
	cfg := studyConfig(t)
	res, err := RunStudy(cfg, autopilot.NewSimBackend(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged() {
		t.Fatalf("study did not converge: generation %d observed %d\nlog:\n%v",
			res.Generation, res.Observed, res.Log)
	}
	if res.Generation != 2 {
		t.Fatalf("generation = %d, want 2 (initial post + revision)", res.Generation)
	}
	if res.ConvergedAt < 0 {
		t.Fatal("ConvergedAt unset despite convergence")
	}
	if res.Incidents != 2 {
		t.Fatalf("incidents = %d, want 2", res.Incidents)
	}
	if res.Arrivals == 0 {
		t.Fatal("no traffic flowed")
	}
	// The log must show the full lifecycle: fleet creation, all three
	// deploys, the crash repair, the rejoin, and the revision's removal.
	wantKinds := map[string]bool{}
	for _, line := range res.Log {
		wantKinds[firstWord(line)] = true
	}
	for _, k := range []StepKind{StepCreateFleet, StepDeploy, StepRepair, StepRejoin, StepRemove} {
		if !wantKinds[string(k)] {
			t.Fatalf("action log missing %q:\n%v", k, res.Log)
		}
	}

	// Determinism: the identical config reproduces the identical result.
	again, err := RunStudy(cfg, autopilot.NewSimBackend(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatal("sim study is not deterministic")
	}
}

// TestStudySimFabricLogsIdentical is the cross-backend half of the e2e
// test: the same scenario on live HTTP fabrics must emit a
// byte-identical action log and the same convergence status — the
// reconciler's decisions depend only on control-plane state both
// backends share.
func TestStudySimFabricLogsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up live fabric hosts")
	}
	cfg := studyConfig(t)
	simRes, err := RunStudy(cfg, autopilot.NewSimBackend(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	fabRes, err := RunStudy(cfg, autopilot.NewFabricBackend(cfg.Seed, 100*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	if !fabRes.Converged() {
		t.Fatalf("fabric study did not converge: generation %d observed %d\nlog:\n%v",
			fabRes.Generation, fabRes.Observed, fabRes.Log)
	}
	if !reflect.DeepEqual(simRes.Log, fabRes.Log) {
		t.Fatalf("action logs diverged across backends:\nsim:    %v\nfabric: %v", simRes.Log, fabRes.Log)
	}
	if simRes.Generation != fabRes.Generation || simRes.Observed != fabRes.Observed {
		t.Fatalf("convergence status diverged: sim %d/%d fabric %d/%d",
			simRes.Observed, simRes.Generation, fabRes.Observed, fabRes.Generation)
	}
	if simRes.Arrivals != fabRes.Arrivals || simRes.Skipped != fabRes.Skipped {
		t.Fatalf("arrival accounting diverged: sim %d/%d fabric %d/%d",
			simRes.Arrivals, simRes.Skipped, fabRes.Arrivals, fabRes.Skipped)
	}
}

// TestStudySLOEscalation exercises the performance rung end to end on
// the simulator: an unreachable SLO keeps planning remaps, escalation
// reaches redeploy, and none of it blocks structural convergence.
func TestStudySLOEscalation(t *testing.T) {
	cfg := studyConfig(t)
	cfg.Chaos = nil
	cfg.Update = nil
	cfg.Spec.MaxTimePenalty = 1e-9
	res, err := RunStudy(cfg, autopilot.NewSimBackend(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged() {
		t.Fatalf("SLO chase blocked structural convergence: %d/%d", res.Observed, res.Generation)
	}
	var sawPerf bool
	for _, line := range res.Log {
		if k := firstWord(line); k == string(StepRemap) || k == string(StepRedeploy) {
			sawPerf = true
		}
	}
	if !sawPerf {
		t.Fatalf("violated SLO never planned a performance step:\n%v", res.Log)
	}
}

func firstWord(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			return s[:i]
		}
	}
	return s
}
