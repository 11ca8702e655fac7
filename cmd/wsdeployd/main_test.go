package main

import (
	"context"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// TestProbeBackoffGrowth pins the degraded-store probe's schedule: the
// base cadence, doubling per failed probe, capped at 16× base.
func TestProbeBackoffGrowth(t *testing.T) {
	base := 10 * time.Millisecond
	want := []time.Duration{10, 20, 40, 80, 160, 160, 160}
	for attempt, w := range want {
		if got := probeDelay(base, attempt); got != w*time.Millisecond {
			t.Fatalf("probeDelay(%d) = %v, want %v", attempt, got, w*time.Millisecond)
		}
	}
}

// TestProbeWaitCancelled: a context cancelled before the wait starts
// ends it at once.
func TestProbeWaitCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if probeWait(ctx, time.Hour, 0) {
		t.Fatal("probeWait on a cancelled context must report false")
	}
}

// TestProbeCancelAbortsMidWait: a context cancelled in the middle of an
// hour-long wait ends it at once instead of sleeping through it.
func TestProbeCancelAbortsMidWait(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan bool, 1)
	go func() { done <- probeWait(ctx, time.Hour, 3) }()
	time.Sleep(20 * time.Millisecond) // let probeWait enter the timer select
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("probeWait cancelled mid-wait must report false")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("probeWait never returned after cancellation")
	}
}

// TestReconcileIntervalMustBePositive: with -reconcile, a zero or
// negative -reconcileinterval is a usage error naming the flag instead
// of a time.NewTicker panic; without -reconcile the cadence is unused.
func TestReconcileIntervalMustBePositive(t *testing.T) {
	for _, every := range []time.Duration{0, -time.Second} {
		err := checkReconcileInterval(true, every)
		if err == nil || !strings.Contains(err.Error(), "-reconcileinterval") {
			t.Fatalf("interval %s: error %v, want one naming -reconcileinterval", every, err)
		}
	}
	if err := checkReconcileInterval(true, 2*time.Second); err != nil {
		t.Fatalf("a positive interval was refused: %v", err)
	}
	if err := checkReconcileInterval(false, 0); err != nil {
		t.Fatalf("an unused interval was refused: %v", err)
	}
}

// TestGCTargetYieldsToGOGC: the daemon sets its own GC target when GOGC
// is empty, and leaves the runtime's alone when GOGC names one.
func TestGCTargetYieldsToGOGC(t *testing.T) {
	percent := func() int {
		p := debug.SetGCPercent(100)
		debug.SetGCPercent(p)
		return p
	}
	before := percent()
	defer debug.SetGCPercent(before)
	t.Setenv("GOGC", "80")
	setGCTarget()
	if got := percent(); got != before {
		t.Fatalf("with GOGC=80 the target moved %d -> %d", before, got)
	}
	t.Setenv("GOGC", "")
	setGCTarget()
	if got := percent(); got != gcPercent {
		t.Fatalf("with GOGC empty the target is %d, want %d", got, gcPercent)
	}
}
