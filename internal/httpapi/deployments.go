package httpapi

import (
	"fmt"
	"net/http"
	"sync"

	"wsdeploy/internal/manager"
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
// lists exactly what the pre-crash daemon acknowledged.
type deployEntry struct {
	ID        string  `json:"id"`
	Algorithm string  `json:"algorithm"`
	Mapping   []int   `json:"mapping"`
	Metrics   Metrics `json:"metrics"`
}

// deployLedger guards one tenant's acknowledged-deployment history.
// entries only ever grows by append, and an entry never changes once
// appended: composite snapshots encode a capped view of it outside mu.
type deployLedger struct {
	mu      sync.Mutex
	entries []deployEntry
	nextID  int // counter behind auto-assigned "dep-<n>" ids
}

// registerDeployments wires the ledger endpoints onto the handler's mux.
func (h *Handler) registerDeployments() {
	h.mux.HandleFunc("GET /v1/deployments", h.withTenant(func(ts *tenantState, w http.ResponseWriter, r *http.Request) {
		ts.deps.list(w, r)
	}))
}

// commit appends one acknowledged deployment — assigning "dep-<n>"
// when the client did not name it — and journals it. The entry only
// becomes visible (and the response only reports the id) if the
// journal append succeeds: the ledger never acknowledges a deployment
// the log could lose.
func (d *deployLedger) commit(ts *tenantState, id string, resp deployResponse) (string, error) {
	ts.snapMu.RLock()
	defer func() {
		ts.snapMu.RUnlock()
		ts.maybeSnapshot()
	}()
	d.mu.Lock()
	defer d.mu.Unlock()
	if id == "" {
		d.nextID++
		id = fmt.Sprintf("dep-%d", d.nextID)
	}
	e := deployEntry{ID: id, Algorithm: resp.Algorithm, Mapping: resp.Mapping, Metrics: resp.Metrics}
	if ts.store != nil {
		if _, err := ts.store.Append(recDeploymentCreated, e); err != nil {
			return "", fmt.Errorf("planned %s but %w: %v", id, manager.ErrJournal, err)
		}
	}
	d.entries = append(d.entries, e)
	return id, nil
}

// replay re-appends a recovered entry without re-journaling it.
func (d *deployLedger) replay(e deployEntry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.entries = append(d.entries, e)
	// Auto-ids count committed entries, so recovery keeps the counter
	// ahead of every replayed "dep-<n>".
	if d.nextID < len(d.entries) {
		d.nextID = len(d.entries)
	}
}

func (d *deployLedger) list(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	entries := append([]deployEntry(nil), d.entries...)
	d.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"count":       len(entries),
		"deployments": entries,
	})
}
