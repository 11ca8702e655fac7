package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"wsdeploy/internal/deploy"
	"wsdeploy/internal/manager"
	"wsdeploy/internal/network"
	"wsdeploy/internal/workflow"
)

// fiveOpLine is a 5-operation pipeline of 0.2 virtual seconds each,
// with small messages, spread over three equal servers: ops 0,1 on
// server 0, ops 2,3 on server 1, the sink on server 2.
func fiveOpLine(t testing.TB) (*workflow.Workflow, *network.Network, deploy.Mapping) {
	t.Helper()
	w, err := workflow.NewLine("chaos-line",
		[]float64{2e8, 2e8, 2e8, 2e8, 2e8},
		[]float64{8000, 8000, 8000, 8000})
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.NewBus("chaos-bus", []float64{1e9, 1e9, 1e9}, 1e8, 0)
	if err != nil {
		t.Fatal(err)
	}
	return w, n, deploy.Mapping{0, 0, 1, 1, 2}
}

// crashRejoinPlan crashes server 1 — the host of the pipeline's middle
// operations — at t=0.3, mid-run, and rejoins it at t=0.8.
func crashRejoinPlan() *Plan {
	return &Plan{
		Name: "crash-mid-run",
		Seed: 7,
		Events: []Event{
			{Time: 0.3, Kind: ServerCrash, Server: 1},
			{Time: 0.8, Kind: ServerRejoin, Server: 1},
		},
	}
}

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
	}{
		{"negative time", Event{Time: -1, Kind: ServerCrash, Server: 0}},
		{"bad server", Event{Kind: ServerCrash, Server: 9}},
		{"bad link", Event{Kind: LinkDegrade, From: 0, To: 9, Factor: 2}},
		{"speedup factor", Event{Kind: LinkDegrade, From: 0, To: 1, Factor: 0.5}},
		{"loss prob out of range", Event{Kind: LossStart, From: -1, To: -1, Factor: 1.5}},
		{"empty partition", Event{Kind: Partition}},
		{"unknown kind", Event{Kind: Kind("meteor-strike")}},
	}
	for _, tc := range cases {
		p := &Plan{Events: []Event{tc.ev}}
		if err := p.Validate(3); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := crashRejoinPlan().Validate(3); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p := Generate(GenerateConfig{Servers: 4, Horizon: 10, Rate: 0.05, Seed: 3})
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParsePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip changed plan:\n%+v\n%+v", p, got)
	}
}

func TestGenerateDeterministicAndSpares(t *testing.T) {
	cfg := GenerateConfig{Servers: 5, Horizon: 20, Rate: 0.1, Seed: 42}
	a, b := Generate(cfg), Generate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config generated different plans")
	}
	if len(a.Events) == 0 {
		t.Fatal("rate 0.1 over 20s×4 crashable servers generated no events")
	}
	for _, ev := range a.Events {
		if ev.Kind == ServerCrash && ev.Server == 0 {
			t.Fatal("generator crashed the designated survivor")
		}
	}
	if err := a.Validate(5); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	if got := Generate(GenerateConfig{Servers: 5, Horizon: 20, Rate: 0, Seed: 42}); len(got.Events) != 0 {
		t.Fatalf("zero rate generated %d events", len(got.Events))
	}
}

func TestSimSelfHealingRecovery(t *testing.T) {
	w, n, mp := fiveOpLine(t)
	out, err := RunSim(w, n, mp, crashRejoinPlan(), RunConfig{Seed: 1, SelfHeal: true})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Run.Completed || out.Run.LostOps != 0 || out.Run.ExecutedOps != w.M() {
		t.Fatalf("self-healed run lost work: %+v", out.Run)
	}
	incs := out.Log.Incidents()
	if len(incs) != 2 {
		t.Fatalf("logged %d incidents, want crash+rejoin", len(incs))
	}
	crash := incs[0]
	if crash.Kind != ServerCrash || crash.Action != "repair-orphans" || crash.OpsMoved != 2 {
		t.Fatalf("crash incident = %+v", crash)
	}
	if !(crash.Time < crash.Detected && crash.Detected < crash.Repaired) {
		t.Fatalf("incident clock not ordered: %+v", crash)
	}
	if crash.CostBefore <= 0 || crash.CostAfter <= 0 {
		t.Fatalf("costs not recorded: %+v", crash)
	}
	if incs[1].Kind != ServerRejoin || incs[1].Action != "rejoin" {
		t.Fatalf("rejoin incident = %+v", incs[1])
	}
	for op, s := range out.FinalMapping {
		if s == 1 {
			t.Fatalf("operation %d still placed on crashed server", op)
		}
	}
}

func TestSimUnhealedCrashWaitsForRejoin(t *testing.T) {
	w, n, mp := fiveOpLine(t)
	out, err := RunSim(w, n, mp, crashRejoinPlan(), RunConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Run.Completed {
		t.Fatalf("run with a rejoining server did not complete: %+v", out.Run)
	}
	// Operations 2 and 3 must idle on the dead server until it rejoins
	// at t=0.8, so the makespan exceeds rejoin + their processing.
	if out.Run.Makespan < 0.8+0.4 {
		t.Fatalf("makespan %g ignores the outage window", out.Run.Makespan)
	}
	if out.Log.Len() != 0 {
		t.Fatal("unsupervised run logged incidents")
	}
}

func TestSimPermanentCrashLosesWorkWithoutHealing(t *testing.T) {
	w, n, mp := fiveOpLine(t)
	plan := &Plan{Seed: 7, Events: []Event{{Time: 0.3, Kind: ServerCrash, Server: 1}}}
	out, err := RunSim(w, n, mp, plan, RunConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Run.Completed || out.Run.LostOps == 0 {
		t.Fatalf("permanent unhealed crash still completed: %+v", out.Run)
	}
	healed, err := RunSim(w, n, mp, plan, RunConfig{Seed: 1, SelfHeal: true})
	if err != nil {
		t.Fatal(err)
	}
	if !healed.Run.Completed || healed.Run.LostOps != 0 {
		t.Fatalf("self-healing did not save the run: %+v", healed.Run)
	}
}

func TestSimPartitionDelaysDelivery(t *testing.T) {
	w, n, mp := fiveOpLine(t)
	plan := &Plan{
		Seed: 7,
		Events: []Event{
			{Time: 0, Kind: Partition, Servers: []int{2}},
			{Time: 1.0, Kind: Heal},
		},
	}
	out, err := RunSim(w, n, mp, plan, RunConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Run.Completed {
		t.Fatalf("partitioned run never completed: %+v", out.Run)
	}
	if out.Run.Makespan < 1.0 {
		t.Fatalf("makespan %g beat the partition heal at t=1", out.Run.Makespan)
	}
}

func TestSimMessageLossInflatesMakespan(t *testing.T) {
	w, n, mp := fiveOpLine(t)
	calm, err := RunSim(w, n, mp, &Plan{Seed: 7}, RunConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lossy := &Plan{
		Seed: 7,
		Events: []Event{
			{Time: 0, Kind: LossStart, From: -1, To: -1, Factor: 0.6},
			{Time: 5, Kind: LossStop, From: -1, To: -1},
		},
	}
	out, err := RunSim(w, n, mp, lossy, RunConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Run.Makespan <= calm.Run.Makespan && out.Run.LostMessages == 0 {
		t.Fatalf("60%% loss left the run untouched: calm %g lossy %+v",
			calm.Run.Makespan, out.Run)
	}
}

func TestSimIncidentLogDeterministic(t *testing.T) {
	w, n, mp := fiveOpLine(t)
	plan := Generate(GenerateConfig{Servers: n.N(), Horizon: 3, Rate: 0.3, Seed: 11})
	cfg := RunConfig{Seed: 5, SelfHeal: true}
	a, err := RunSim(w, n, mp, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSim(w, n, mp, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Log.Canonical(), b.Log.Canonical()) {
		t.Fatalf("same plan+seed, different incident logs:\n%s\n----\n%s",
			a.Log.Canonical(), b.Log.Canonical())
	}
	if a.Run.Makespan != b.Run.Makespan || a.Run.ExecutedOps != b.Run.ExecutedOps {
		t.Fatalf("same plan+seed, different outcomes: %+v vs %+v", a.Run, b.Run)
	}
}

func TestFabricSelfHealingRecovery(t *testing.T) {
	w, n, mp := fiveOpLine(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := RunFabric(ctx, w, n, mp, crashRejoinPlan(), RunConfig{
		Seed:      1,
		SelfHeal:  true,
		TimeScale: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Run.ExecutedOps != w.M() {
		t.Fatalf("lost operations: executed %d of %d", out.Run.ExecutedOps, w.M())
	}
	incs := out.Log.Incidents()
	if len(incs) != 2 || incs[0].Action != "repair-orphans" || incs[0].OpsMoved != 2 {
		t.Fatalf("incident log = %+v", incs)
	}
	if out.Stats.Remaps != 2 {
		t.Fatalf("fabric recorded %d remaps, want 2", out.Stats.Remaps)
	}
	for op, s := range out.FinalMapping {
		if s == 1 {
			t.Fatalf("operation %d still placed on crashed server", op)
		}
	}
}

func TestFabricIncidentLogDeterministic(t *testing.T) {
	w, n, mp := fiveOpLine(t)
	cfg := RunConfig{Seed: 1, SelfHeal: true, TimeScale: 5 * time.Millisecond}
	run := func() []byte {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		out, err := RunFabric(ctx, w, n, mp, crashRejoinPlan(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return out.Log.Canonical()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same plan+seed, different fabric incident logs:\n%s\n----\n%s", a, b)
	}
}

func TestSimAndFabricLogsAgree(t *testing.T) {
	// The canonical log carries only plan times and deterministic
	// manager-derived repair facts, so the two backends must produce the
	// very same bytes for the same plan.
	w, n, mp := fiveOpLine(t)
	simOut, err := RunSim(w, n, mp, crashRejoinPlan(), RunConfig{Seed: 1, SelfHeal: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fabOut, err := RunFabric(ctx, w, n, mp, crashRejoinPlan(), RunConfig{
		Seed: 1, SelfHeal: true, TimeScale: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(simOut.Log.Canonical(), fabOut.Log.Canonical()) {
		t.Fatalf("backends disagree:\nsim:\n%s\nfabric:\n%s",
			simOut.Log.Canonical(), fabOut.Log.Canonical())
	}
}

func TestSupervisorConcurrentEvents(t *testing.T) {
	// Exercised under -race in CI: concurrent crash/rejoin handlers and
	// mapping readers must not trip the detector, and every event must
	// land in the log exactly once.
	w, n, mp := func(t *testing.T) (*workflow.Workflow, *network.Network, deploy.Mapping) {
		w, err := workflow.NewLine("c", []float64{1e6, 1e6, 1e6, 1e6, 1e6},
			[]float64{800, 800, 800, 800})
		if err != nil {
			t.Fatal(err)
		}
		n, err := network.NewBus("b", []float64{1e9, 1e9, 1e9, 1e9, 1e9}, 1e8, 0)
		if err != nil {
			t.Fatal(err)
		}
		return w, n, deploy.Mapping{0, 1, 2, 3, 4}
	}(t)

	mgr := manager.New(n)
	if err := mgr.Adopt("wf", w, mp); err != nil {
		t.Fatal(err)
	}
	sv := NewSupervisor(mgr, "wf")
	var wg sync.WaitGroup
	for s := 1; s <= 3; s++ {
		wg.Add(2)
		go func(s int) {
			defer wg.Done()
			sv.HandleCrash(float64(s), s)
		}(s)
		go func(s int) {
			defer wg.Done()
			sv.HandleRejoin(float64(s)+0.5, s)
		}(s)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = sv.Mapping()
		}()
	}
	wg.Wait()
	incs := sv.Log().Incidents()
	if len(incs) != 6 {
		t.Fatalf("logged %d incidents, want 6", len(incs))
	}
	for i, inc := range incs {
		if inc.Seq != i {
			t.Fatalf("incident %d has seq %d", i, inc.Seq)
		}
	}
	final := sv.Mapping()
	if err := final.Validate(w, n); err != nil {
		t.Fatalf("final mapping broken: %v", err)
	}
}
