// Package reconcile is the declarative desired-state layer: clients
// describe *what* should be deployed — a DeploymentSpec naming the
// workflows, the fleet they run on, SLO targets and placement hints —
// and a per-tenant reconciler loop continuously diffs that desired
// state against the observed fleet and drives the existing
// engine/manager machinery toward it with bounded Actions.
//
// This inverts the imperative model every earlier subsystem patched
// onto the paper's one-shot optimisation: instead of clients calling
// deploy/remap/rebalance and the autopilot and chaos supervisor each
// owning a private escalation path, there is one convergence loop.
// Chaos incidents (NoteIncident) and the autopilot drift detector's
// live Time-Penalty signal (ObserveWindow) are merely *inputs* to that
// loop; the reconciler decides what, if anything, to do, and every
// decision lands in one ordered action log that is byte-identical on
// the discrete-event simulator and the wall-clock fabric.
//
// Desired state is versioned: every spec revision gets a monotonic
// generation number, journaled through internal/store before it is
// acknowledged, and the status's ObservedGeneration only advances —
// also journal-first — once a reconcile pass finds no structural diff
// for that generation. After a kill -9 the WAL's record order therefore
// proves ObservedGeneration ≤ Generation at every byte offset: a crash
// can lose an acknowledgement-in-progress, never invert causality.
//
// The package splits along operator-pattern seams:
//
//   - Spec / Set        — versioned desired state (spec.go, set.go)
//   - Observed / Diff   — observation and the structural/performance
//     differ (diff.go)
//   - Executor          — bounded actions over a *manager.Locked
//     fleet, pushed to an optional autopilot.Backend when the fleet's
//     classes run on a live substrate (actions.go)
//   - Reconciler        — the loop: observe → diff → act → advance
//     (loop.go)
//   - Study             — the deterministic convergence experiment:
//     RunStudy drives autopilot's traffic Driver over either backend
//     (study.go)
package reconcile
