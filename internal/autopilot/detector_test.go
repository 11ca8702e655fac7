package autopilot

import (
	"math"
	"testing"
)

func TestDriftNormalization(t *testing.T) {
	if d := Drift(nil); d != 0 {
		t.Fatalf("Drift(nil) = %v, want 0", d)
	}
	if d := Drift([]float64{0, 0, 0}); d != 0 {
		t.Fatalf("Drift of idle fleet = %v, want 0", d)
	}
	base := Drift([]float64{4, 1, 1})
	if base <= 0 {
		t.Fatalf("imbalanced loads should drift, got %v", base)
	}
	// Scale-free: a diurnal peak doubles every load but moves nothing.
	doubled := Drift([]float64{8, 2, 2})
	if math.Abs(base-doubled) > 1e-12 {
		t.Fatalf("Drift is not scale-free: %v vs %v", base, doubled)
	}
	if d := Drift([]float64{2, 2, 2}); d != 0 {
		t.Fatalf("balanced loads should read zero drift, got %v", d)
	}
}

func TestDetectorDefaultsAndEscalation(t *testing.T) {
	d := NewDetector(DetectorConfig{})
	cfg := d.Config()
	if cfg.Cooldown != 10 || cfg.ReArm != 40 {
		t.Fatalf("unexpected defaults: cooldown=%v rearm=%v", cfg.Cooldown, cfg.ReArm)
	}
	if got := d.Evaluate(1, 0.02); got != LevelNone {
		t.Fatalf("below every band: got %s", got)
	}
	if got := d.Evaluate(2, 0.09); got != LevelTouchUp {
		t.Fatalf("in touch-up band: got %s", got)
	}
	if got := d.Evaluate(3, 0.20); got != LevelDelta {
		t.Fatalf("in delta band: got %s", got)
	}
	// The highest armed level wins, not the first.
	if got := d.Evaluate(4, 0.50); got != LevelRebalance {
		t.Fatalf("above rebalance enter: got %s", got)
	}
}

func TestDetectorHysteresisFiresOncePerExcursion(t *testing.T) {
	d := NewDetector(DetectorConfig{Cooldown: 1, ReArm: 1000})
	if got := d.Evaluate(1, 0.20); got != LevelDelta {
		t.Fatalf("first excursion: got %s", got)
	}
	d.ActionTaken(1, LevelDelta)
	// Still above Enter but disarmed and cooled down: quiet.
	if got := d.Evaluate(3, 0.20); got != LevelNone {
		t.Fatalf("disarmed level refired: got %s", got)
	}
	// Dips below delta Exit (0.10) but stays above touch-up Enter (0.08):
	// delta re-arms, and touch-up (also below its own Exit? no — 0.09 >
	// 0.05 keeps touch-up disarmed) stays quiet.
	if got := d.Evaluate(4, 0.09); got != LevelNone {
		t.Fatalf("during re-arm dip: got %s", got)
	}
	// Fresh excursion above Enter fires again.
	if got := d.Evaluate(5, 0.18); got != LevelDelta {
		t.Fatalf("second excursion: got %s", got)
	}
}

func TestDetectorCooldownBlocks(t *testing.T) {
	d := NewDetector(DetectorConfig{Cooldown: 10, ReArm: 1000})
	if got := d.Evaluate(1, 0.09); got != LevelTouchUp {
		t.Fatalf("arming read: got %s", got)
	}
	d.ActionTaken(1, LevelTouchUp)
	// Higher levels stay armed, but the shared cooldown gates them too.
	if got := d.Evaluate(5, 0.40); got != LevelNone {
		t.Fatalf("cooldown must gate every level: got %s", got)
	}
	if got := d.Evaluate(12, 0.40); got != LevelRebalance {
		t.Fatalf("after cooldown: got %s", got)
	}
}

func TestDetectorTimeBasedReArm(t *testing.T) {
	d := NewDetector(DetectorConfig{Cooldown: 5, ReArm: 20})
	if got := d.Evaluate(1, 0.20); got != LevelDelta {
		t.Fatalf("initial firing: got %s", got)
	}
	d.ActionTaken(1, LevelDelta)
	// Drift hovers between Exit (0.10) and Enter (0.15) — never re-arms
	// by hysteresis — then climbs back above Enter while still disarmed.
	if got := d.Evaluate(10, 0.12); got != LevelNone {
		t.Fatalf("hovering drift refired early: got %s", got)
	}
	if got := d.Evaluate(15, 0.20); got != LevelNone {
		t.Fatalf("still inside ReArm window: got %s", got)
	}
	// At t ≥ 1+20 the level re-arms on time alone: persistent elevation
	// means conditions shifted again.
	if got := d.Evaluate(22, 0.20); got != LevelDelta {
		t.Fatalf("time-based re-arm: got %s", got)
	}
}

// TestDetectorStateRoundTrip proves a restored detector is
// indistinguishable from one that never restarted: same decisions on
// the same reading stream.
func TestDetectorStateRoundTrip(t *testing.T) {
	cfg := DetectorConfig{Cooldown: 5, ReArm: 20}
	live := NewDetector(cfg)
	if got := live.Evaluate(1, 0.20); got != LevelDelta {
		t.Fatalf("setup firing: got %s", got)
	}
	live.ActionTaken(1, LevelDelta)

	// "Reboot": serialize, build a fresh detector, restore.
	rebooted := NewDetector(cfg)
	rebooted.Restore(live.State())

	for _, probe := range []struct {
		t, drift float64
	}{
		{3, 0.20},  // inside cooldown
		{7, 0.20},  // cooled down but delta disarmed, rearm pending
		{10, 0.05}, // dips below every Exit: re-arms both
		{12, 0.20}, // fresh excursion
	} {
		want := live.Evaluate(probe.t, probe.drift)
		got := rebooted.Evaluate(probe.t, probe.drift)
		if got != want {
			t.Fatalf("t=%.0f drift=%.2f: restored detector says %s, continuous says %s", probe.t, probe.drift, got, want)
		}
		if want != LevelNone {
			live.ActionTaken(probe.t, want)
			rebooted.ActionTaken(probe.t, want)
		}
	}
	if live.LastDrift() != rebooted.LastDrift() {
		t.Fatalf("drift telemetry diverged: %v vs %v", live.LastDrift(), rebooted.LastDrift())
	}
}

// TestDetectorRestartWithoutStateThrashes documents the failure mode
// durability prevents: a fresh (unrestored) detector re-fires on the
// same elevated drift the pre-crash detector already acted on, while a
// restored one stays quiet.
func TestDetectorRestartWithoutStateThrashes(t *testing.T) {
	cfg := DetectorConfig{Cooldown: 5, ReArm: 100}
	before := NewDetector(cfg)
	if got := before.Evaluate(1, 0.20); got != LevelDelta {
		t.Fatalf("setup firing: got %s", got)
	}
	before.ActionTaken(1, LevelDelta)

	amnesiac := NewDetector(cfg)
	if got := amnesiac.Evaluate(8, 0.14); got != LevelTouchUp {
		t.Fatalf("amnesiac detector should thrash (re-fire): got %s", got)
	}
	restored := NewDetector(cfg)
	restored.Restore(before.State())
	if got := restored.Evaluate(8, 0.14); got != LevelNone {
		t.Fatalf("restored detector must hold its hysteresis: got %s", got)
	}
}

// TestDetectorRestoreForwardCompatible feeds a short saved state (an
// older, smaller ladder) into the current detector: missing levels stay
// armed.
func TestDetectorRestoreForwardCompatible(t *testing.T) {
	d := NewDetector(DetectorConfig{})
	d.Restore(DetectorState{Armed: []bool{false}, RearmAt: []float64{50}})
	if got := d.Evaluate(1, 0.09); got != LevelNone {
		t.Fatalf("restored disarmed touch-up fired: got %s", got)
	}
	if got := d.Evaluate(2, 0.40); got != LevelRebalance {
		t.Fatalf("unrestored level should stay armed: got %s", got)
	}
}
