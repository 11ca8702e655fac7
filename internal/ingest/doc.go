// Package ingest is the deploy pipeline in front of the daemon's
// planner engine: it plans each request on arrival, lets identical
// concurrent requests share one plan, and bounds the requests in
// flight.
//
// Shape of the pipeline:
//
//   - Submit takes one of MaxQueue slots, or sheds at once with
//     ErrBacklog — the HTTP layer maps it to 503 + Retry-After — so
//     overload turns into fast, explicit rejections instead of
//     unbounded latency. A request holds its slot until the plan
//     serving it ends.
//   - It then keys the request by canonical content
//     (engine.Canonicalize + engine.RequestKey) and either joins the
//     running plan with the same key or starts a new plan at once, so
//     one workflow's plan never waits behind another's. A request whose
//     whole portfolio is deterministic is keyed with seed zero, so
//     per-client seeds stop defeating both coalescing and the engine's
//     LRU plan cache. Requests naming seeded algorithms keep their seed
//     and only coalesce with exact matches — coalescing never changes a
//     result, it only removes redundant work.
//   - A request with a deadline never coalesces: it plans alone, under
//     exactly its own deadline. If the deadline passes mid-plan, Submit
//     returns the plan's best-so-far with engine.ErrDeadline.
//   - A cancelled waiter returns at once; its plan runs on for the other
//     waiters and still warms the cache. Close cancels the running
//     plans, fails their waiters with ErrClosed, and waits for the plan
//     goroutines to exit.
//
// Slots held, shed counts, coalescing wins, plans started and waiters
// per plan are surfaced through the shared obs registry (the ingest.*
// series at /metrics).
package ingest
