package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"wsdeploy/internal/manager"
	"wsdeploy/internal/tenant"
	"wsdeploy/internal/wdl"
	"wsdeploy/internal/wfio"
	"wsdeploy/internal/workflow"
)

// Fleet endpoints expose the online deployment manager as a stateful
// service (one fleet per tenant):
//
//	PUT    /v1/fleet                    — (re)create the fleet from a network spec
//	GET    /v1/fleet/status             — combined loads, penalty, per-workflow exec
//	POST   /v1/fleet/workflows          — deploy a workflow {id, workflow|workflowWdl}
//	DELETE /v1/fleet/workflows/{id}     — retire a workflow
//	POST   /v1/fleet/servers            — join a server {name, powerHz}
//	DELETE /v1/fleet/servers/{index}    — fail a server (repairs orphans)
//	POST   /v1/fleet/rebalance          — globally rebalance the portfolio
//
// The fleet lives in a manager.Locked; with a durable tenant every
// mutation additionally appends one typed record to the tenant's
// write-ahead log under the same mutex hold, so the log order is the
// mutation order and replay reconstructs the fleet byte-identically.

// fleetState is one tenant's managed fleet. The tenant's lock guards
// the l pointer (create/restore swap it) and serializes fleet requests;
// the Locked's own mutex makes the fleet safe to share beyond HTTP.
type fleetState struct {
	ts *tenantState
	l  *manager.Locked
}

// fleetFn adapts a fleetState method to the tenant wrapper shape.
func fleetFn(fn func(*fleetState, http.ResponseWriter, *http.Request)) tenantHandlerFunc {
	return func(ts *tenantState, w http.ResponseWriter, r *http.Request) { fn(ts.fleet, w, r) }
}

// registerFleet wires the fleet endpoints onto the handler's mux,
// resolving each request's tenant; mutations pass admission first.
func (h *Handler) registerFleet() {
	h.mux.HandleFunc("PUT /v1/fleet", h.admit(requireDurable(fleetFn((*fleetState).create))))
	h.mux.HandleFunc("GET /v1/fleet/status", h.withTenant(fleetFn((*fleetState).status)))
	h.mux.HandleFunc("POST /v1/fleet/workflows", h.admit(requireDurable(fleetFn((*fleetState).deployWorkflow))))
	h.mux.HandleFunc("DELETE /v1/fleet/workflows/{id}", h.admit(requireDurable(fleetFn((*fleetState).removeWorkflow))))
	h.mux.HandleFunc("POST /v1/fleet/servers", h.admit(requireDurable(fleetFn((*fleetState).serverUp))))
	h.mux.HandleFunc("DELETE /v1/fleet/servers/{index}", h.admit(requireDurable(fleetFn((*fleetState).serverDown))))
	h.mux.HandleFunc("POST /v1/fleet/rebalance", h.admit(requireDurable(fleetFn((*fleetState).rebalance))))
	h.mux.HandleFunc("GET /v1/fleet/snapshot", h.withTenant(fleetFn((*fleetState).snapshot)))
	h.mux.HandleFunc("PUT /v1/fleet/snapshot", h.admit(requireDurable(fleetFn((*fleetState).restore))))
}

// requireFleet returns the fleet or writes a 409. The caller holds
// ts.mu.
func (fs *fleetState) requireFleet(w http.ResponseWriter) *manager.Locked {
	if fs.l == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("no fleet created yet; PUT /v1/fleet first"))
		return nil
	}
	return fs.l
}

// writeMutationErr answers a failed state mutation. A journal failure
// (manager.ErrJournal) is a 503: the store is sick, not the request,
// and the client should retry once durability is back. A fleet past one
// of the tenant's caps (manager.ErrOverCap) sheds like admission: 503 +
// Retry-After, counted in tenant.rejected_capacity. Anything else gets
// the endpoint's domain code.
func writeMutationErr(w http.ResponseWriter, err error, code int) {
	switch {
	case errors.Is(err, manager.ErrOverCap):
		writeDecision(w, tenant.OverCapacity(err.Error()))
		return
	case errors.Is(err, manager.ErrJournal):
		code = http.StatusServiceUnavailable
	}
	writeErr(w, code, err)
}

func (fs *fleetState) create(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Network json.RawMessage `json:"network"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Network) == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("fleet creation needs a network"))
		return
	}
	n, err := wfio.Network(req.Network)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	fs.ts.mutate(func() {
		fleet, err := fs.ts.createFleet(n)
		if err != nil {
			writeMutationErr(w, err, http.StatusInternalServerError)
			return
		}
		fs.l = fleet
		writeJSON(w, http.StatusOK, map[string]any{"servers": n.N()})
	})
}

// status reads the fleet under the tenant's lock, so it never sees half
// a reconcile pass, and answers outside it.
func (fs *fleetState) status(w http.ResponseWriter, _ *http.Request) {
	fs.ts.mu.Lock()
	l := fs.requireFleet(w)
	var st manager.Status
	if l != nil {
		st = l.Status()
	}
	fs.ts.mu.Unlock()
	if l == nil {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"servers":     st.Servers,
		"workflows":   st.Workflows,
		"loads":       st.Loads,
		"timePenalty": st.TimePenalty,
		"totalExec":   st.TotalExec,
		"perWorkflow": st.PerWorkflow,
	})
}

// decodeWorkflowField accepts either a JSON workflow spec or WDL source.
func decodeWorkflowField(spec json.RawMessage, wdlSrc string) (*workflow.Workflow, error) {
	switch {
	case len(spec) > 0 && wdlSrc != "":
		return nil, fmt.Errorf("pass either workflow (JSON) or workflowWdl, not both")
	case len(spec) > 0:
		return wfio.Workflow(spec)
	case wdlSrc != "":
		return wdl.Parse(wdlSrc)
	default:
		return nil, fmt.Errorf("request needs workflow (JSON) or workflowWdl")
	}
}

func (fs *fleetState) deployWorkflow(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID          string          `json:"id"`
		Workflow    json.RawMessage `json:"workflow"`
		WorkflowWDL string          `json:"workflowWdl"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if req.ID == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("workflow deployment needs an id"))
		return
	}
	wf, err := decodeWorkflowField(req.Workflow, req.WorkflowWDL)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	fs.ts.mutate(func() {
		l := fs.requireFleet(w)
		if l == nil {
			return
		}
		if err := l.Deploy(req.ID, wf); err != nil {
			writeMutationErr(w, err, http.StatusConflict)
			return
		}
		mp, _ := l.Mapping(req.ID)
		writeJSON(w, http.StatusOK, map[string]any{"id": req.ID, "mapping": mp})
	})
}

func (fs *fleetState) removeWorkflow(w http.ResponseWriter, r *http.Request) {
	fs.ts.mutate(func() {
		l := fs.requireFleet(w)
		if l == nil {
			return
		}
		if err := l.Remove(r.PathValue("id")); err != nil {
			writeMutationErr(w, err, http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"removed": r.PathValue("id")})
	})
}

func (fs *fleetState) serverUp(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name    string  `json:"name"`
		PowerHz float64 `json:"powerHz"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	fs.ts.mutate(func() {
		l := fs.requireFleet(w)
		if l == nil {
			return
		}
		idx, err := l.ServerUp(req.Name, req.PowerHz)
		if err != nil {
			writeMutationErr(w, err, http.StatusUnprocessableEntity)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"index": idx, "servers": l.Network().N()})
	})
}

func (fs *fleetState) serverDown(w http.ResponseWriter, r *http.Request) {
	idx, err := strconv.Atoi(r.PathValue("index"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad server index %q", r.PathValue("index")))
		return
	}
	fs.ts.mutate(func() {
		l := fs.requireFleet(w)
		if l == nil {
			return
		}
		moved, err := l.ServerDown(idx)
		if err != nil {
			writeMutationErr(w, err, http.StatusUnprocessableEntity)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"moved": moved, "servers": l.Network().N()})
	})
}

// snapshot serializes the whole fleet state for backup or replication.
func (fs *fleetState) snapshot(w http.ResponseWriter, _ *http.Request) {
	fs.ts.mu.Lock()
	l := fs.requireFleet(w)
	var data []byte
	var err error
	if l != nil {
		data, err = l.Snapshot()
	}
	fs.ts.mu.Unlock()
	if l == nil {
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// restore replaces the fleet with a previously captured snapshot. The
// whole snapshot becomes one WAL record, so replay rebuilds the fleet
// from it without needing the history that preceded the restore.
func (fs *fleetState) restore(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	m, err := manager.Restore(data)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	fleet, err := manager.NewCapped(m, fs.ts.caps())
	if err != nil {
		writeMutationErr(w, err, http.StatusBadRequest)
		return
	}
	fs.ts.mutate(func() {
		if err := fs.ts.journal("fleet not restored", manager.RecFleetRestore, manager.RestoreRecord(data)); err != nil {
			writeMutationErr(w, err, http.StatusInternalServerError)
			return
		}
		fleet.AttachJournal(fs.ts.store)
		fs.l = fleet
		st := fleet.Status()
		writeJSON(w, http.StatusOK, map[string]any{"servers": st.Servers, "workflows": st.Workflows})
	})
}

func (fs *fleetState) rebalance(w http.ResponseWriter, _ *http.Request) {
	fs.ts.mutate(func() {
		l := fs.requireFleet(w)
		if l == nil {
			return
		}
		moved, err := l.Rebalance()
		if err != nil {
			writeMutationErr(w, err, http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"moved": moved})
	})
}
