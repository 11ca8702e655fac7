package reconcile

import (
	"encoding/json"
	"strings"
	"testing"

	"wsdeploy/internal/autopilot"
	"wsdeploy/internal/manager"
	"wsdeploy/internal/network"
	"wsdeploy/internal/wdl"
	"wsdeploy/internal/workflow"
)

// demoSpec builds a spec from the canonical drift-demo scenario: three
// line workflows on a four-server bus, encoded through wfio exactly as
// an API client would post them.
func demoSpec(t *testing.T) Spec {
	t.Helper()
	classes, n, err := autopilot.DemoScenario()
	if err != nil {
		t.Fatal(err)
	}
	return specFrom(t, n, classes...)
}

func specFrom(t *testing.T, n *network.Network, classes ...autopilot.ClassSpec) Spec {
	t.Helper()
	sp, err := SpecFromClasses(n, classes)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestSpecCompileValidates(t *testing.T) {
	good := demoSpec(t)
	if _, err := good.Compile(); err != nil {
		t.Fatalf("demo spec must compile: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"no workflows", func(s *Spec) { s.Workflows = nil }},
		{"empty id", func(s *Spec) { s.Workflows[0].ID = "" }},
		{"duplicate id", func(s *Spec) { s.Workflows[1].ID = s.Workflows[0].ID }},
		{"both intakes", func(s *Spec) { s.Workflows[0].WorkflowWDL = "workflow x { op a 1e6 }" }},
		{"neither intake", func(s *Spec) { s.Workflows[0].Workflow = nil }},
		{"unknown algorithm", func(s *Spec) { s.Algorithm = "no-such-planner" }},
		{"negative minServers", func(s *Spec) { s.MinServers = -1 }},
		{"minServers past the server cap", func(s *Spec) { s.MinServers = network.MaxServers + 1 }},
		{"negative slo", func(s *Spec) { s.MaxTimePenalty = -0.5 }},
		{"bad network", func(s *Spec) { s.Network = json.RawMessage(`{"servers": "nope"}`) }},
	}
	for _, tc := range cases {
		sp := demoSpec(t)
		tc.mut(&sp)
		if _, err := sp.Compile(); err == nil {
			t.Errorf("%s: Compile accepted an invalid spec", tc.name)
		}
	}
}

func TestSetGenerationBookkeeping(t *testing.T) {
	st := NewSet()
	if g := st.NextGeneration("app"); g != 1 {
		t.Fatalf("NextGeneration of a new name = %d, want 1", g)
	}
	sp := demoSpec(t)
	if g := st.Put("app", sp); g != 1 {
		t.Fatalf("first Put assigned generation %d, want 1", g)
	}
	if g := st.Put("app", sp); g != 2 {
		t.Fatalf("second Put assigned generation %d, want 2", g)
	}
	v, ok := st.Get("app")
	if !ok || v.Generation != 2 || v.Observed != 0 || v.Converged() {
		t.Fatalf("unexpected state after two revisions: %+v", v)
	}
	if st.TotalLag() != 2 {
		t.Fatalf("TotalLag = %d, want 2", st.TotalLag())
	}

	// Advance is monotonic both ways.
	if st.Advance("app", 3) {
		t.Fatal("Advance beyond the desired generation must be refused")
	}
	if !st.Advance("app", 1) || !st.Advance("app", 2) {
		t.Fatal("legitimate advances refused")
	}
	if st.Advance("app", 1) {
		t.Fatal("Advance must refuse regression")
	}
	v, _ = st.Get("app")
	if !v.Converged() || st.TotalLag() != 0 {
		t.Fatalf("not converged after full advance: %+v", v)
	}

	st.ReplayDelete(DeleteRecord{Name: "app"})
	if _, ok := st.Get("app"); ok || len(st.List()) != 0 || st.NextGeneration("app") != 1 {
		t.Fatal("ReplayDelete left the spec behind")
	}
}

func TestSetReplayEnforcesCausality(t *testing.T) {
	sp := demoSpec(t)
	st := NewSet()
	if err := st.ReplaySpec(SpecRecord{Name: "app", Generation: 1, Spec: sp}); err != nil {
		t.Fatal(err)
	}
	// An observed record can never exceed the recovered desired
	// generation: the WAL journals the spec before the acknowledgement.
	if err := st.ReplayObserved(ObservedRecord{Name: "app", Generation: 2}); err == nil {
		t.Fatal("ReplayObserved accepted a generation the log never held")
	}
	if err := st.ReplayObserved(ObservedRecord{Name: "app", Generation: 1}); err != nil {
		t.Fatal(err)
	}
	// A spec record that does not advance the generation is corruption.
	if err := st.ReplaySpec(SpecRecord{Name: "app", Generation: 1, Spec: sp}); err == nil {
		t.Fatal("ReplaySpec accepted a non-advancing generation")
	}
	if err := st.ReplayObserved(ObservedRecord{Name: "ghost", Generation: 1}); err == nil {
		t.Fatal("ReplayObserved accepted an unknown spec")
	}

	// RestoreImage clamps an impossible snapshot rather than resurrect it.
	st2 := NewSet()
	st2.RestoreImage([]Versioned{{Name: "x", Generation: 1, Observed: 5, Spec: sp}})
	v, _ := st2.Get("x")
	if v.Observed != v.Generation {
		t.Fatalf("RestoreImage kept Observed %d > Generation %d", v.Observed, v.Generation)
	}
}

func TestDiffPlansInOrder(t *testing.T) {
	sp := demoSpec(t)
	sp.MinServers = 4
	sp.MaxTimePenalty = 0.001
	c, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	v := Versioned{Name: "app", Generation: 1, Spec: sp}

	// Nothing exists: create-fleet then every deploy, no performance step.
	steps := Diff(v, c, Observed{LivePenalty: -1})
	kinds := kindsOf(steps)
	want := []StepKind{StepCreateFleet, StepDeploy, StepDeploy, StepDeploy}
	if !equalKinds(kinds, want) {
		t.Fatalf("cold diff = %v, want %v", kinds, want)
	}

	// Incidents come first; an extra workflow is removed; a down server
	// below minServers plans a scale-up.
	obs := Observed{
		HasFleet: true, Servers: 4, Down: []int{2},
		Workflows:   []string{"wf-a", "wf-b", "wf-c", "wf-old"},
		LivePenalty: -1,
		Incidents:   []Incident{{Kind: IncidentCrash, Server: 2, Time: 3}},
	}
	steps = Diff(v, c, obs)
	kinds = kindsOf(steps)
	want = []StepKind{StepRepair, StepScaleUp, StepRemove}
	if !equalKinds(kinds, want) {
		t.Fatalf("degraded diff = %v, want %v", kinds, want)
	}

	// Structurally settled and over the SLO: exactly one remap.
	obs = Observed{
		HasFleet: true, Servers: 4,
		Workflows:   []string{"wf-a", "wf-b", "wf-c"},
		LivePenalty: 0.5,
	}
	steps = Diff(v, c, obs)
	if len(steps) != 1 || steps[0].Kind != StepRemap || steps[0].Structural() {
		t.Fatalf("SLO diff = %v, want one non-structural remap", steps)
	}

	// Paused specs plan nothing.
	v.Spec.Paused = true
	if got := Diff(v, c, obs); len(got) != 0 {
		t.Fatalf("paused spec planned %v", got)
	}
}

func kindsOf(steps []Step) []StepKind {
	out := make([]StepKind, len(steps))
	for i, s := range steps {
		out[i] = s.Kind
	}
	return out
}

func equalKinds(a, b []StepKind) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// newTestReconciler wires a reconciler over a real fleet executor.
func newTestReconciler(cfg Config) (*Set, *FleetExecutor, *Reconciler) {
	set := NewSet()
	exec := &FleetExecutor{
		CreateFleet: func(n *network.Network) (*manager.Locked, error) {
			return manager.NewLocked(n), nil
		},
	}
	return set, exec, New(set, exec, cfg)
}

func TestReconcilerConvergesAndTracksRevisions(t *testing.T) {
	sp := demoSpec(t)
	set, exec, rec := newTestReconciler(Config{})
	set.Put("app", sp)

	res := rec.RunPass(0)
	if !res.Converged || res.Lag != 0 {
		t.Fatalf("pass 0 did not converge: %+v", res)
	}
	v, _ := set.Get("app")
	if !v.Converged() || v.Generation != 1 {
		t.Fatalf("status after pass 0: %+v", v)
	}
	if got := exec.Fleet.Workflows(); len(got) != 3 {
		t.Fatalf("deployed %v, want all three classes", got)
	}

	// Revision drops one workflow: the next pass removes it and the
	// observed generation follows.
	sp2 := sp
	sp2.Workflows = sp.Workflows[:2]
	set.Put("app", sp2)
	if v, _ := set.Get("app"); v.Converged() {
		t.Fatal("revision did not open a generation gap")
	}
	res = rec.RunPass(1)
	if !res.Converged {
		t.Fatalf("pass 1 did not converge: %+v", res)
	}
	v, _ = set.Get("app")
	if v.Generation != 2 || v.Observed != 2 {
		t.Fatalf("status after revision: %+v", v)
	}
	if got := exec.Fleet.Workflows(); len(got) != 2 {
		t.Fatalf("portfolio after removal: %v", got)
	}

	// A further pass is a no-op: level-triggered loops are idempotent at
	// the fixpoint.
	res = rec.RunPass(2)
	if len(res.Actions) != 0 {
		t.Fatalf("converged pass still acted: %v", res.Actions)
	}
}

func TestReconcilerRepairsIncidents(t *testing.T) {
	sp := demoSpec(t)
	set, exec, rec := newTestReconciler(Config{})
	set.Put("app", sp)
	rec.RunPass(0)

	rec.NoteIncident(Incident{Kind: IncidentCrash, Server: 3, Time: 1.5})
	res := rec.RunPass(2)
	if len(res.Actions) == 0 || res.Actions[0].Step.Kind != StepRepair {
		t.Fatalf("crash incident did not plan a repair: %+v", res.Actions)
	}
	if !exec.Fleet.IsDown(3) {
		t.Fatal("server 3 not marked down after repair")
	}
	for _, id := range exec.Fleet.Workflows() {
		mp, _ := exec.Fleet.Mapping(id)
		for op, s := range mp {
			if s == 3 {
				t.Fatalf("workflow %s op %d still on crashed server", id, op)
			}
		}
	}

	rec.NoteIncident(Incident{Kind: IncidentRejoin, Server: 3, Time: 4})
	res = rec.RunPass(5)
	if len(res.Actions) == 0 || res.Actions[0].Step.Kind != StepRejoin {
		t.Fatalf("rejoin incident did not plan a rejoin: %+v", res.Actions)
	}
	if exec.Fleet.IsDown(3) {
		t.Fatal("server 3 still down after rejoin")
	}
}

func TestReconcilerJournalHookGatesAdvance(t *testing.T) {
	sp := demoSpec(t)
	var journaled []uint64
	fail := true
	set, _, _ := newTestReconciler(Config{})
	exec := &FleetExecutor{CreateFleet: func(n *network.Network) (*manager.Locked, error) {
		return manager.NewLocked(n), nil
	}}
	rec := New(set, exec, Config{OnObserved: func(name string, gen uint64) error {
		if fail {
			return errTest
		}
		journaled = append(journaled, gen)
		return nil
	}})
	set.Put("app", sp)

	// Journal failure: actions applied but the observed generation must
	// not advance — the acknowledgement is the journal's.
	res := rec.RunPass(0)
	if res.Converged {
		t.Fatal("pass reported convergence despite journal failure")
	}
	if v, _ := set.Get("app"); v.Observed != 0 {
		t.Fatalf("observed advanced to %d without a journal record", v.Observed)
	}

	fail = false
	res = rec.RunPass(1)
	if !res.Converged {
		t.Fatalf("pass 1 did not converge: %+v", res)
	}
	if len(journaled) != 1 || journaled[0] != 1 {
		t.Fatalf("journaled advances = %v, want [1]", journaled)
	}
	if v, _ := set.Get("app"); v.Observed != 1 {
		t.Fatalf("observed = %d after journaled advance", v.Observed)
	}
}

var errTest = &journalErr{}

type journalErr struct{}

func (*journalErr) Error() string { return "journal unavailable" }

// scriptedExec wraps a FleetExecutor and forces remaps to report zero
// moves, so escalation logic can be exercised deterministically.
type scriptedExec struct {
	*FleetExecutor
	remaps, redeploys int
}

func (s *scriptedExec) Apply(step Step, v Versioned, c *Compiled) (int, error) {
	switch step.Kind {
	case StepRemap:
		s.remaps++
		return 0, nil // pretend no profitable move exists
	case StepRedeploy:
		s.redeploys++
	}
	return s.FleetExecutor.Apply(step, v, c)
}

func TestReconcilerEscalatesFruitlessRemap(t *testing.T) {
	sp := demoSpec(t)
	sp.MaxTimePenalty = 1e-9 // unreachable SLO: always violated
	set := NewSet()
	inner := &FleetExecutor{CreateFleet: func(n *network.Network) (*manager.Locked, error) {
		return manager.NewLocked(n), nil
	}}
	exec := &scriptedExec{FleetExecutor: inner}
	rec := New(set, exec, Config{})
	set.Put("app", sp)

	var log []string
	for pass := 0; pass < 3; pass++ {
		// Pass 0: structure converges; SLO still violated → remap planned.
		// Pass 1: remap returns 0 moves → escalation armed.
		// Pass 2: escalated: redeploy fires.
		for _, a := range rec.RunPass(float64(pass)).Actions {
			log = append(log, a.String())
		}
	}
	if exec.remaps == 0 {
		t.Fatal("no remap ever planned under a violated SLO")
	}
	if exec.redeploys == 0 {
		t.Fatalf("fruitless remap did not escalate to redeploy (log: %v)", log)
	}
	// Structural convergence held throughout: the SLO chase never
	// blocked the observed generation.
	if v, _ := set.Get("app"); !v.Converged() {
		t.Fatalf("performance steps blocked convergence: %+v", v)
	}
}

func TestReconcilerUsesAlgorithmHint(t *testing.T) {
	sp := demoSpec(t)
	sp.Algorithm = "fairload"
	set, exec, rec := newTestReconciler(Config{})
	set.Put("app", sp)
	if res := rec.RunPass(0); !res.Converged {
		t.Fatalf("hinted pass did not converge: %+v", res)
	}
	if got := len(exec.Fleet.Workflows()); got != 3 {
		t.Fatalf("deployed %d classes, want 3", got)
	}
}

func TestActionLogFormatStable(t *testing.T) {
	a := Action{Step: Step{Kind: StepDeploy, Workflow: "wf-a"}, Moved: 0}
	if got := a.String(); got != "deploy wf-a moved=0" {
		t.Fatalf("action line = %q", got)
	}
	a = Action{Step: Step{Kind: StepRepair, Server: 2}, Moved: 3, Err: "boom"}
	if got := a.String(); got != "repair server 2 moved=3 err=boom" {
		t.Fatalf("action line = %q", got)
	}
}

func TestWDLIntake(t *testing.T) {
	classes, n, err := autopilot.DemoScenario()
	if err != nil {
		t.Fatal(err)
	}
	sp := specFrom(t, n, classes[:1]...)
	sp.Workflows = append(sp.Workflows, WorkflowSpec{ID: "wdl-wf", WorkflowWDL: wdlSource(t, classes[1].Workflow)})
	c, err := sp.Compile()
	if err != nil {
		t.Fatalf("WDL intake failed: %v", err)
	}
	if len(c.Order) != 2 {
		t.Fatalf("compiled %d workflows, want 2", len(c.Order))
	}
}

// wdlSource renders a workflow as WDL through the repo's formatter.
func wdlSource(t *testing.T, w *workflow.Workflow) string {
	t.Helper()
	src, err := wdl.Format(w)
	if err != nil || strings.TrimSpace(src) == "" {
		t.Skipf("wdl formatter cannot render this workflow: %v", err)
	}
	return src
}
