package httpapi

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
)

// The deployment ledger is one tenant's durable history of POST
// /v1/deploy: every successful plan appends one entry (and, with a
// store, one "deployment.created" record), so after a kill -9 the
// daemon can list exactly the deployments it acknowledged to that
// tenant.
//
//	GET /v1/deployments — the tenant's full ledger, oldest first

// deployEntry is one acknowledged planning result. It must round-trip
// byte-identically through the WAL: GET /v1/deployments after a crash
// lists exactly what the pre-crash daemon acknowledged. Once in the
// ledger an entry is immutable, so its Mapping and Metrics.Loads may
// be the very slices of an earlier entry with the same plan.
type deployEntry struct {
	ID        string  `json:"id"`
	Algorithm string  `json:"algorithm"`
	Mapping   []int   `json:"mapping"`
	Metrics   Metrics `json:"metrics"`
}

// deployLedger is one tenant's acknowledged-deployment history, guarded
// by the tenant's lock. entries only ever grows by append, and an entry
// never changes once appended: GET /v1/deployments and composite
// snapshots encode a capped view of it outside the lock. Every entry
// goes in through add, which keeps each distinct mapping and load
// vector once, however often a tenant deploys the same plan. An
// auto-assigned id is "dep-<n>" for the n-th entry, so a live ledger, a
// replayed log and a restored snapshot all assign the same next id. No
// client may name an id of that form, nor one the ledger already holds,
// so a live daemon never lists an id twice; a log written before these
// rules may, and replays as written.
type deployLedger struct {
	entries []deployEntry
	// plans maps a planHash to the index of the first entry with that
	// content; a later entry that hashes the same is compared in full.
	plans map[uint64]int
	// named holds the ids of the form no auto id takes: the only ones a
	// client's id can collide with. Auto deploys add nothing to it.
	named map[string]struct{}
}

// errDuplicateID answers a deploy naming an id the ledger already holds.
var errDuplicateID = errors.New("deployment id already in the ledger")

// reservedID reports whether id has the auto form "dep-<digits>", which
// only the ledger assigns.
func reservedID(id string) bool {
	digits, ok := strings.CutPrefix(id, "dep-")
	if !ok || digits == "" {
		return false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// registerDeployments wires the ledger endpoints onto the handler's mux.
func (h *Handler) registerDeployments() {
	h.mux.HandleFunc("GET /v1/deployments", h.withTenant((*tenantState).listDeployments))
}

// commitDeployment appends one acknowledged deployment to the ledger —
// assigning "dep-<n>", n its position in the ledger, when the client
// did not name it — and journals it. A named id the ledger already
// holds fails with errDuplicateID, journaling nothing. The entry only
// becomes visible (and the response only reports the id) if the journal
// append succeeds: the ledger never acknowledges a deployment the log
// could lose.
func (ts *tenantState) commitDeployment(id string, resp deployResponse) (string, error) {
	var err error
	ts.mutate(func() {
		d := ts.deps
		if id == "" {
			id = fmt.Sprintf("dep-%d", len(d.entries)+1)
		} else if _, dup := d.named[id]; dup {
			err = fmt.Errorf("%w: %q", errDuplicateID, id)
			return
		}
		e := deployEntry{ID: id, Algorithm: resp.Algorithm, Mapping: resp.Mapping, Metrics: resp.Metrics}
		if err = ts.journal("deployment not committed", recDeploymentCreated, e); err == nil {
			d.add(e)
		}
	})
	if err != nil {
		return "", err
	}
	return id, nil
}

// restore loads a composite snapshot's entries into an empty ledger.
// The decoded slice becomes the backing array, rewritten in place: add
// writes entry i back to slot i and shares only with the slots before
// it.
func (d *deployLedger) restore(entries []deployEntry) {
	d.entries = entries[:0]
	for _, e := range entries {
		d.add(e)
	}
}

// add appends e, first pointing its Mapping and Metrics.Loads at the
// first earlier entry with identical content, and records a named id.
// Equality is exact (loads bit for bit), and an empty slice is never
// shared, so null and [] stay distinct on the wire. The tenant's lock
// must be held, or the tenant not yet published.
func (d *deployLedger) add(e deployEntry) {
	if !reservedID(e.ID) {
		if d.named == nil {
			d.named = make(map[string]struct{})
		}
		d.named[e.ID] = struct{}{}
	}
	h := planHash(e.Mapping, e.Metrics.Loads)
	if i, ok := d.plans[h]; !ok {
		if d.plans == nil {
			d.plans = make(map[uint64]int)
		}
		d.plans[h] = len(d.entries)
	} else if first := &d.entries[i]; samePlan(first, &e) {
		if len(e.Mapping) > 0 {
			e.Mapping = first.Mapping
		}
		if len(e.Metrics.Loads) > 0 {
			e.Metrics.Loads = first.Metrics.Loads
		}
	}
	d.entries = append(d.entries, e)
}

// planHash is a 64-bit content hash of a mapping and its load vector:
// every word is folded into the state, which is then re-mixed with
// splitmix64's finalizer. Seeding with the mapping's length keeps the
// boundary between the two slices unambiguous.
func planHash(mapping []int, loads []float64) uint64 {
	mix := func(h, v uint64) uint64 {
		h ^= v
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		return h ^ h>>31
	}
	h := uint64(len(mapping))
	for _, v := range mapping {
		h = mix(h, uint64(v))
	}
	for _, f := range loads {
		h = mix(h, math.Float64bits(f))
	}
	return h
}

// samePlan reports whether a and b carry the same mapping and the same
// load vector, comparing loads by their bits.
func samePlan(a, b *deployEntry) bool {
	return slices.Equal(a.Mapping, b.Mapping) &&
		slices.EqualFunc(a.Metrics.Loads, b.Metrics.Loads, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		})
}

func (ts *tenantState) listDeployments(w http.ResponseWriter, _ *http.Request) {
	ts.mu.Lock()
	// The first n entries never change again, so the capped view is a
	// stable image to encode outside the lock.
	n := len(ts.deps.entries)
	entries := ts.deps.entries[:n:n]
	ts.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"count":       n,
		"deployments": entries,
	})
}
