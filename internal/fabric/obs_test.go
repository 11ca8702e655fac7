package fabric

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"wsdeploy/internal/deploy"
	"wsdeploy/internal/obs"
	"wsdeploy/internal/workflow"
)

// dropFirst loses the first N cross-host delivery attempts, then lets
// everything through — a deterministic way to force retries.
type dropFirst struct {
	n atomic.Int64
}

func (d *dropFirst) ServerDown(int) bool             { return false }
func (d *dropFirst) Unreachable(int, int) bool       { return false }
func (d *dropFirst) TransferFactor(int, int) float64 { return 1 }
func (d *dropFirst) ProcFactor(int) float64          { return 1 }
func (d *dropFirst) DropMessage(int, int) bool       { return d.n.Add(-1) >= 0 }

// waitStats polls the fabric's stats until ok accepts them or a second
// passes — sender goroutines may still be accounting their last attempt
// when the run's sink completes.
func waitStats(t *testing.T, f *Fabric, ok func(Stats) bool) Stats {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		st := f.Stats()
		if ok(st) || time.Now().After(deadline) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
}

func deployLine(t testing.TB, cfg Config) *Fabric {
	t.Helper()
	w, err := workflow.NewLine("w", []float64{1e6, 1e6}, []float64{800})
	if err != nil {
		t.Fatal(err)
	}
	n := busNet(t, []float64{1e9, 1e9}, 1e8)
	f, err := Deploy(w, n, deploy.Mapping{0, 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// TestPerAttemptLatency drives a cross-host run whose first deliveries
// are dropped and checks that every attempt — failed ones included —
// lands in the per-attempt histogram, and that Stats.Attempts is
// derived from it.
func TestPerAttemptLatency(t *testing.T) {
	drops := &dropFirst{}
	drops.n.Store(2)
	f := deployLine(t, Config{
		TimeScale: time.Millisecond,
		Faults:    drops,
	})
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecutedOps != 2 {
		t.Fatalf("executed %d ops, want 2", res.ExecutedOps)
	}
	// The sender goroutine records its final (accepted) attempt after
	// the sink completes the run, so allow it a moment to finish.
	// One message, two dropped attempts plus the accepted one.
	st := waitStats(t, f, func(st Stats) bool { return st.Attempts == 3 })
	if st.Retries != 2 {
		t.Errorf("retries = %d, want 2", st.Retries)
	}
	if st.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", st.Attempts)
	}
	lat := f.AttemptLatency()
	if lat.Count != int64(st.Attempts) {
		t.Errorf("histogram count %d != stats attempts %d", lat.Count, st.Attempts)
	}
	if lat.Max <= 0 || lat.P90 <= 0 {
		t.Errorf("latency snapshot not populated: %+v", lat)
	}
	if lat.Max < lat.P50 {
		t.Errorf("max %.6fs below p50 %.6fs", lat.Max, lat.P50)
	}
}

// TestFabricRunSpans checks the fabric's trace output: one "fabric.run"
// root per instance with a "fabric.send" child per cross-host message.
func TestFabricRunSpans(t *testing.T) {
	rec := obs.NewFlightRecorder(64)
	f := deployLine(t, Config{
		TimeScale: time.Millisecond,
		Tracer:    obs.NewTracer(rec),
	})
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	// The send span ends on the sender goroutine after the receiving
	// host accepts — which is also what completes the run — so wait for
	// it to land in the recorder.
	deadline := time.Now().Add(time.Second)
	for rec.Len() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	var runs, sends int
	var sendParent, runID uint64
	for _, sp := range rec.Snapshot() {
		switch sp.Name {
		case "fabric.run":
			runs++
			runID = sp.ID
			if v, ok := sp.Attr("outcome"); !ok || v != "completed" {
				t.Errorf("fabric.run outcome = %q", v)
			}
		case "fabric.send":
			sends++
			sendParent = sp.Parent
			if v, ok := sp.Attr("outcome"); !ok || v != "accepted" {
				t.Errorf("fabric.send outcome = %q", v)
			}
		}
	}
	if runs != 1 || sends != 1 {
		t.Fatalf("spans: %d runs, %d sends; want 1 and 1", runs, sends)
	}
	if sendParent != runID {
		t.Errorf("send span parent %d != run span id %d", sendParent, runID)
	}
}

// TestObsDisabledZeroAllocs pins the acceptance criterion: the
// instrumentation wrapped around the fabric send path must not allocate
// when tracing is off.
func TestObsDisabledZeroAllocs(t *testing.T) {
	f := deployLine(t, Config{TimeScale: time.Millisecond})
	inst := &instance{id: 1, ctx: context.Background()} // span nil: tracing off
	start := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := f.beginSend(inst, 0)
		f.observeAttempt(start)
		endSend(sp, "accepted", 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocates %.1f per send, want 0", allocs)
	}
}

// BenchmarkObsDisabled prices the instrumentation on the fabric send
// path with tracing off: the span helpers are nil no-ops and the
// per-attempt histogram is lock-free atomics. Expected 0 allocs/op.
func BenchmarkObsDisabled(b *testing.B) {
	f := deployLine(b, Config{TimeScale: time.Millisecond})
	inst := &instance{id: 1, ctx: context.Background()}
	start := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := f.beginSend(inst, 0)
		f.observeAttempt(start)
		endSend(sp, "accepted", 1)
	}
}

// BenchmarkObsEnabled is the enabled-tracing counterpart, for the
// overhead budget in DESIGN.md.
func BenchmarkObsEnabled(b *testing.B) {
	rec := obs.NewFlightRecorder(obs.DefaultFlightSize)
	tracer := obs.NewTracer(rec)
	f := deployLine(b, Config{TimeScale: time.Millisecond, Tracer: tracer})
	root := tracer.StartSpan("bench.instance")
	defer root.End()
	inst := &instance{id: 1, ctx: context.Background(), span: root}
	start := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := f.beginSend(inst, 0)
		f.observeAttempt(start)
		endSend(sp, "accepted", 1)
	}
}
