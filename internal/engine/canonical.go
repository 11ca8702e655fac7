package engine

import (
	"encoding/hex"
	"strings"

	"wsdeploy/internal/core"
)

// Request canonicalization. The plan cache keys on (workflow, network,
// algorithm, seed) — including the seed even for algorithms whose
// constructors ignore it, so two clients planning the same spec with
// different seeds never share a cache line. The ingest pipeline fixes
// that at the request level: a request whose whole portfolio is
// deterministic (core.Seeded false for every name) is rewritten to the
// canonical seed zero before keying and planning, so logically
// identical requests coalesce in flight and hit one cache entry.
// Requests naming any seeded algorithm keep their seed — the seed is
// load-bearing there and coalescing across seeds would change results.

// Canonicalize returns the request rewritten to its canonical form:
// the seed is zeroed when every algorithm the request names (or the
// engine's default portfolio, when it names none) ignores it, and kept
// verbatim otherwise. Canonicalize(a) == Canonicalize(b) by RequestKey
// exactly when a and b are guaranteed to produce identical results,
// which is the coalescing contract the ingest pipeline needs.
func (e *Engine) Canonicalize(req Request) Request {
	names := req.Algorithms
	if len(names) == 0 {
		names = e.algorithms
	}
	for _, name := range names {
		if core.Seeded(name) {
			return req
		}
	}
	req.Seed = 0
	return req
}

// RequestKey returns a stable content hash of the whole request — the
// algorithm list (resolved to the engine's default portfolio when
// empty), the seed, and the structural content of the workflow and
// network (the same fields the plan cache hashes, none of the display
// names). Callers that want seed-insensitive keys for deterministic
// portfolios should pass the request through Canonicalize first.
func (e *Engine) RequestKey(req Request) string {
	names := req.Algorithms
	if len(names) == 0 {
		names = e.algorithms
	}
	// The unit separator cannot appear in registry keys, so the joined
	// list is unambiguous and reuses the per-plan content hasher.
	k := planKey(req.Workflow, req.Network, strings.Join(names, "\x1f"), req.Seed)
	return hex.EncodeToString(k[:])
}
