package fabric

import "wsdeploy/internal/stats"

// The retry policy under which the fabric's senders survive transient
// faults: a per-attempt acknowledgement timeout and capped exponential
// backoff with jitter. All durations are virtual seconds (the cost
// model's unit), scaled by Config.TimeScale at runtime; the chaos
// simulator applies the same policy on its virtual clock, so both
// backends retry identically.
const (
	// MaxAttempts is the number of delivery attempts before a message is
	// abandoned.
	MaxAttempts = 10
	// AckTimeout is the virtual seconds a sender waits for an ack before
	// declaring an attempt lost.
	AckTimeout = 0.05
	// baseBackoff is the virtual-seconds backoff before the first retry;
	// it doubles per attempt up to maxBackoff.
	baseBackoff = 0.01
	maxBackoff  = 1.0
	// jitter is the uniform jitter fraction added to each backoff:
	// backoff × [0, jitter) extra.
	jitter = 0.2
)

// Backoff returns the virtual-seconds wait before retry attempt
// `attempt` (counting from 1): baseBackoff × 2^(attempt-1), capped at
// maxBackoff, plus a jitter drawn deterministically from r.
func Backoff(attempt int, r *stats.RNG) float64 {
	d := baseBackoff
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	if r != nil {
		d += d * jitter * r.Float64()
	}
	return d
}

// FaultController lets a chaos runtime perturb a running fabric. A nil
// controller means a fault-free fabric. Hosts and senders consult the
// controller from many goroutines, so implementations must be safe for
// concurrent use.
type FaultController interface {
	// ServerDown reports whether server s is currently crashed: its host
	// rejects inbound messages (503) and starts no new operations.
	ServerDown(s int) bool
	// Unreachable reports whether traffic between the two servers is
	// currently blocked (network partition). Blocked attempts time out
	// and retry.
	Unreachable(from, to int) bool
	// TransferFactor scales the transfer sleep of a message from→to
	// (link degradation); 1 means no slowdown.
	TransferFactor(from, to int) float64
	// DropMessage reports whether this delivery attempt is lost in
	// transit; the sender times out and retries.
	DropMessage(from, to int) bool
	// ProcFactor scales processing time on server s (latency spikes);
	// 1 means no spike.
	ProcFactor(s int) float64
}

// Stats counts the fabric's delivery traffic and fault handling across
// all instances. Beyond the counts, every cross-host delivery attempt's
// wall latency is recorded — whatever its outcome — in per-attempt
// histograms: Fabric.AttemptLatency summarizes this fabric's, and the
// process-wide "fabric.send_attempt_seconds" histogram on the obs
// registry aggregates all fabrics for /metrics.
type Stats struct {
	MessagesSent int   // accepted cross-host messages
	BytesOnWire  int64 // XML bytes of accepted cross-host messages
	Attempts     int   // cross-host delivery attempts, any outcome
	Retries      int   // delivery attempts beyond each message's first
	Drops        int   // attempts lost in transit (injected loss/partition)
	Rejections   int   // attempts rejected by a down or misdirected host
	GiveUps      int   // messages abandoned after MaxAttempts
	Remaps       int   // live operation re-placements
}
