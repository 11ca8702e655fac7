// Package ingest is the planning pipeline in front of the daemon's
// planner engine: every plan the HTTP API runs, a deploy or a
// portfolio race, goes through Submit, which plans the request on
// arrival, on the caller's goroutine, and bounds the requests in
// flight.
//
// Shape of the pipeline:
//
//   - Submit takes one of MaxQueue slots, or sheds at once with
//     ErrBacklog — the HTTP layer maps it to 503 + Retry-After — so
//     overload turns into fast, explicit rejections instead of
//     unbounded latency. A request holds its slot until its plan ends.
//   - It then calls the engine's Run under the caller's context, so
//     one workflow's plan never waits behind another's. The engine
//     keys each plan with seed zero when no algorithm of the request
//     reads the seed, so per-client seeds do not defeat its LRU plan
//     cache, and a repeated deterministic deploy is a cache hit.
//   - If the caller's deadline passes mid-plan, Submit returns the
//     plan's best-so-far with engine.ErrDeadline. A cancelled request
//     stops its plan and returns the context's error. Close cancels
//     every running plan, answers its request with ErrClosed, and
//     waits for the plans to end.
//
// Slots held, requests submitted and requests shed are surfaced
// through the shared obs registry (the ingest.* series at /metrics).
package ingest
