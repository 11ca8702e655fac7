package core

import (
	"fmt"
	"sort"
)

// registryEntry binds one registry key to its constructor. Seeded
// algorithms receive the caller's seed; unseeded ones ignore it and the
// seeded flag records which is which — deterministic algorithms produce
// the same mapping whatever seed the caller passes, a fact the engine's
// plan cache exploits to serve requests that differ only in their seed
// from one entry.
type registryEntry struct {
	key    string
	seeded bool
	new    func(seed uint64) Algorithm
}

// registry is the single source of truth for the algorithm registry:
// NewByName, KnownAlgorithms and RegistryOrder all derive from this
// table, so the set of constructible algorithms and the set of advertised
// keys cannot drift apart. Entries are listed in the paper's presentation
// order (exact search, line family, bus family, then the search-based
// extensions); this order is also the deterministic tie-break used by the
// portfolio engine.
var registry = []registryEntry{
	{"exhaustive", false, func(uint64) Algorithm { return Exhaustive{} }},
	{"sampling", true, func(seed uint64) Algorithm { return Sampling{Seed: seed} }},
	{"lineline", false, func(uint64) Algorithm { return LineLine{} }},
	{"lineline-nofix", false, func(uint64) Algorithm { return LineLine{SkipFix: true} }},
	{"lineline-rl", false, func(uint64) Algorithm { return LineLine{Reverse: true} }},
	{"lineline-best", false, func(uint64) Algorithm { return LineLineBest{} }},
	{"fairload", false, func(uint64) Algorithm { return FairLoad{} }},
	{"fltr", true, func(seed uint64) Algorithm { return FLTR{Seed: seed} }},
	{"fltr2", true, func(seed uint64) Algorithm { return FLTR2{Seed: seed} }},
	{"flmme", true, func(seed uint64) Algorithm { return FLMME{Seed: seed} }},
	{"holm", false, func(uint64) Algorithm { return HOLM{} }},
	{"localsearch", false, func(uint64) Algorithm { return LocalSearch{} }},
	{"anneal", true, func(seed uint64) Algorithm { return Anneal{Seed: seed} }},
	{"partition", false, func(uint64) Algorithm { return Partition{} }},
	// The geo family: partition-then-place for multi-region networks
	// (degenerates to the inner planner on single-site networks).
	{"geoplace", false, func(uint64) Algorithm { return GeoPlace{} }},
	{"geoplace-holm", false, func(uint64) Algorithm { return GeoPlace{Inner: HOLM{}} }},
	{"geoplace-ls", false, func(uint64) Algorithm { return GeoPlace{Inner: LocalSearch{}} }},
}

// NewByName constructs an algorithm from its registry key. Seeded
// algorithms receive the given seed; unseeded ones ignore it. The known
// keys are the lower-case short names used across the CLI tools and the
// experiment harness:
//
//	exhaustive, sampling, lineline, lineline-nofix, lineline-rl,
//	lineline-best, fairload, fltr, fltr2, flmme, holm,
//	localsearch, anneal, partition, geoplace, geoplace-holm,
//	geoplace-ls
func NewByName(name string, seed uint64) (Algorithm, error) {
	for _, e := range registry {
		if e.key == name {
			return e.new(seed), nil
		}
	}
	return nil, fmt.Errorf("core: unknown algorithm %q (known: %v)", name, KnownAlgorithms())
}

// Seeded reports whether the named algorithm's constructor consumes the
// seed. A false return is a determinism guarantee: the algorithm maps
// (workflow, network) to the same deployment whatever seed is passed,
// so two requests differing only in their seed are interchangeable.
// Unknown names report true — the conservative answer, since a caller
// about to fail on an unknown algorithm must not share a plan with
// anything.
func Seeded(name string) bool {
	for _, e := range registry {
		if e.key == name {
			return e.seeded
		}
	}
	return true
}

// KnownAlgorithms returns the sorted registry keys accepted by NewByName.
func KnownAlgorithms() []string {
	keys := RegistryOrder()
	sort.Strings(keys)
	return keys
}

// RegistryOrder returns the registry keys in declaration order (the
// paper's presentation order). The portfolio engine breaks cost ties by
// this order so winner selection is deterministic.
func RegistryOrder() []string {
	keys := make([]string, len(registry))
	for i, e := range registry {
		keys[i] = e.key
	}
	return keys
}

// BusSuite returns the paper's Line–Bus / Graph–Bus algorithm family in
// the order the figures plot them: FairLoad, the two tie resolvers,
// Merge Messages' Ends, and Heavy Operations – Large Messages.
func BusSuite(seed uint64) []Algorithm {
	return []Algorithm{
		FairLoad{},
		FLTR{Seed: seed},
		FLTR2{Seed: seed},
		FLMME{Seed: seed},
		HOLM{},
	}
}
