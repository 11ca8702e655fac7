package engine

import "wsdeploy/internal/core"

// canonicalSeed returns the seed a run over names plans and keys under:
// zero when every algorithm ignores its seed (core.Seeded is false for
// each name), and seed itself otherwise. Deterministic planners map a
// problem to the same deployment whatever the seed, so requests that
// differ only in their seed share one cache entry per plan. The rule
// covers the whole run, not each plan: a run naming any seeded
// algorithm keeps its seed in every plan key, deterministic ones
// included, so a seeded portfolio always plans afresh.
func canonicalSeed(names []string, seed uint64) uint64 {
	for _, name := range names {
		if core.Seeded(name) {
			return seed
		}
	}
	return 0
}
