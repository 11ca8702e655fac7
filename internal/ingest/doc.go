// Package ingest is the high-throughput deploy pipeline: it turns
// request-at-a-time planning into a batched, bounded, backpressured
// path in front of the daemon's planner engine.
//
// Shape of the pipeline:
//
//   - Submit enqueues one planning request onto a bounded queue. A full
//     queue sheds immediately with ErrBacklog — the HTTP layer maps it
//     to 503 + Retry-After — so overload turns into fast, explicit
//     rejections instead of unbounded latency.
//   - A dispatcher goroutine drains the queue into batches: it blocks
//     for the first request, then takes whatever else is already
//     queued, up to 64 requests per batch. It never waits for more, so
//     an idle pipeline adds no latency, and batches grow with
//     concurrency because arrivals queue up while the previous batch
//     executes — the group-commit discipline.
//   - Each flush coalesces its requests by canonical content key
//     (engine.Canonicalize + engine.RequestKey): requests for the same
//     workflow/network/portfolio are planned once per flush, and a
//     request whose whole portfolio is deterministic is keyed with seed
//     zero, so per-client seeds stop defeating both the coalescer and
//     the engine's LRU plan cache. Requests naming seeded algorithms
//     keep their seed and only coalesce with exact matches — coalescing
//     never changes a result, it only removes redundant work. A request
//     with a deadline never coalesces: it plans alone, under exactly
//     its own deadline.
//   - Unique groups plan concurrently (at most GOMAXPROCS at a time)
//     through engine.Run — the cached, deadline-aware engine path — and
//     every waiter in a group receives the group's result.
//   - A deadline that passes while the request is queued answers at
//     once, unplanned; one that passes while it plans delivers the
//     plan's best-so-far (engine.ErrDeadline). A cancelled waiter stops
//     waiting at once.
//
// Queue depth, shed counts, coalescing wins, batch sizes and queue-wait
// latency are all surfaced through the shared obs registry (the
// ingest.* series at /metrics).
package ingest
