// Package autopilot closes the loop between observation and planning:
// a drift detector samples per-server load from the live substrate
// (sim BusyTime / fabric Busy), evaluates the paper's Time Penalty as a
// live SLO, and a decision policy escalates proportionally to the
// measured drift —
//
//	no-op → GreedyPlace-style touch-up → bounded-migration delta plan
//	     → full rebalance
//
// — with fixed hysteresis bands (Level.Band) and cooldowns so noise
// does not thrash the fleet. Growing the fleet is the reconciler's job
// (a spec's minServers), not a rung of this ladder. The package also
// ships the traffic source needed to exercise the loop: a seeded
// open-loop Poisson generator with steady, diurnal and skew load
// shapes that drives both the sim and fabric backends.
//
// The drift signal is *normalized*: PenaltyOfLoads(observed)/Σobserved,
// which is scale-free — a uniform rate change (the diurnal amplitude)
// moves every server together and triggers nothing; only *imbalance*
// does. Imbalance appears when the class mix shifts: each workflow
// class has its own lumpy placement, so traffic skewing toward a hot
// class concentrates load on that class's servers.
package autopilot
