package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wsdeploy/internal/stats"
)

// arrival is one scheduled operation: when it is due, as an offset from
// the start of its phase, and which traffic stream it belongs to.
type arrival struct {
	at     time.Duration
	stream int
}

// schedule draws round(rate·dur) arrivals for each stream, each uniform
// over [0, dur), and merges them in due order. Uniform times with a fixed
// count are a Poisson process conditioned on its count: the gaps are as
// bursty as Poisson traffic, but every seed offers exactly the same load,
// so throughput does not vary with the draw.
func schedule(r *stats.RNG, rates []float64, dur time.Duration) []arrival {
	var out []arrival
	for s, rate := range rates {
		n := int(math.Round(rate * dur.Seconds()))
		for i := 0; i < n; i++ {
			out = append(out, arrival{at: time.Duration(r.Float64() * float64(dur)), stream: s})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// opFunc runs one operation of a stream. seq numbers the operation
// within its phase.
type opFunc func(ctx context.Context, stream int, seq int) error

// sample is one finished operation.
type sample struct {
	stream int
	lat    time.Duration // open loop: from the due time, so waiting for a sender counts
	err    error
}

// phaseResult is the outcome of one load phase.
type phaseResult struct {
	samples []sample
	elapsed time.Duration // phase start to last completion
}

// runOpen drives an open loop: senders take arrivals in due order, sleep
// until each is due, and run it. A request that comes due while every
// sender is busy waits for one, and that wait is part of its latency:
// timing starts at the due time, not at the send. senders bounds the
// concurrent operations, and so the client connections.
func runOpen(ctx context.Context, arrivals []arrival, senders int, do opFunc) phaseResult {
	var (
		next atomic.Int64
		mu   sync.Mutex
		res  = phaseResult{samples: make([]sample, 0, len(arrivals))}
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := time.NewTimer(time.Hour)
			defer timer.Stop()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrivals) || ctx.Err() != nil {
					return
				}
				a := arrivals[i]
				due := start.Add(a.at)
				if wait := time.Until(due); wait > 0 {
					timer.Reset(wait)
					select {
					case <-timer.C:
					case <-ctx.Done():
						return
					}
				}
				err := do(ctx, a.stream, i)
				lat := time.Since(due)
				mu.Lock()
				res.samples = append(res.samples, sample{stream: a.stream, lat: lat, err: err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// pacerRate is the pacer's wake rate: enough wakes in a few seconds for a
// p99 with ten samples beyond it, at negligible CPU.
const pacerRate = 400

// pacer sleeps through a Poisson schedule at pacerRate in the background
// until stop, which returns how late each wake was, in ms. Run beside a
// phase, it measures how late a sleeping generator goroutine wakes in
// this process under that phase's load: lateness the harness would
// otherwise misread as latency of the system under test.
func pacer(ctx context.Context, seed uint64) (stop func() []float64) {
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan []float64, 1)
	go func() {
		r := stats.NewRNG(seed)
		var late []float64
		timer := time.NewTimer(time.Hour)
		defer timer.Stop()
		due := time.Now()
		for {
			due = due.Add(time.Duration(-math.Log(1-r.Float64()) / pacerRate * float64(time.Second)))
			timer.Reset(time.Until(due))
			select {
			case <-ctx.Done():
				done <- late
				return
			case <-timer.C:
				late = append(late, float64(time.Since(due))/float64(time.Millisecond))
			}
		}
	}()
	return func() []float64 {
		cancel()
		return <-done
	}
}

// runClosed runs clients back-to-back for dur: each sends its next
// operation as soon as the previous one returns, so the offered load is
// whatever the system sustains. Each client cycles through streams in
// the proportions of rates, starting at its own offset: a random mix
// would vary the share of expensive operations, and with it throughput,
// from run to run.
func runClosed(ctx context.Context, clients int, dur time.Duration, rates []float64, do opFunc) phaseResult {
	var (
		mu  sync.Mutex
		res phaseResult
		seq atomic.Int64
		wg  sync.WaitGroup
	)
	cycle := mixCycle(rates)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(next int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				stream := cycle[next%len(cycle)]
				next++
				t0 := time.Now()
				err := do(ctx, stream, int(seq.Add(1)-1))
				lat := time.Since(t0)
				mu.Lock()
				res.samples = append(res.samples, sample{stream: stream, lat: lat, err: err})
				mu.Unlock()
			}
		}(c * len(cycle) / clients)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// mixCycle returns one cycle of stream indices in the proportions of the
// (whole-numbered) rates, each stream spread evenly by smooth weighted
// round-robin: rates 54 and 6 give nine 0s and one 1.
func mixCycle(rates []float64) []int {
	g := 0
	counts := make([]int, len(rates))
	for i, r := range rates {
		counts[i] = int(math.Round(r))
		g = gcd(g, counts[i])
	}
	total := 0
	for i := range counts {
		counts[i] /= g
		total += counts[i]
	}
	cycle := make([]int, 0, total)
	credit := make([]int, len(counts))
	for len(cycle) < total {
		best := 0
		for i := range counts {
			credit[i] += counts[i]
			if credit[i] > credit[best] {
				best = i
			}
		}
		credit[best] -= total
		cycle = append(cycle, best)
	}
	return cycle
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
