package httpapi

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"wsdeploy/internal/store"
)

// TestConcurrentDomainsReplayExactly drives every durable domain of one
// tenant at once — deploys, imperative fleet mutations, a spec revised
// and reconciled over the same fleet, autopilot runs — while composite
// snapshots run in a loop, then reopens the store: the composite that
// restoreFromRecovery rebuilds must encode byte for byte as the live
// one. Every append runs under the tenant's lock with the mutation it
// records, so the log's order is the mutation order across domains and
// a snapshot covers exactly the sequence it names.
func TestConcurrentDomainsReplayExactly(t *testing.T) {
	dir := t.TempDir()
	opts := store.Options{Sync: store.SyncNone}
	h, def := durableHandler(t, dir, opts, nil)
	defer h.Close()
	ts := defaultTenant(h)
	wf, nf := specPair(t)
	spec1, spec2 := specBody(t, "app", "wf-a"), specBody(t, "app", "wf-a", "wf-b")
	pilot, resume := autopilotBody(t, true, ""), autopilotBody(t, true, `, "resume": true`)

	// serve answers one request; a code outside ok (200 when empty) is an
	// error. Fleet calls race the reconciler over one fleet, so they may
	// meet a workflow it already removed or one it placed.
	serve := func(method, path, body string, ok ...int) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		if w.Code != http.StatusOK && !slices.Contains(ok, w.Code) {
			t.Errorf("%s %s = %d: %s", method, path, w.Code, w.Body)
		}
	}
	serve(http.MethodPut, "/v1/fleet", `{"network": `+nf+`}`)

	done := make(chan struct{})
	snapshots := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				snapshots <- n
				return
			default:
			}
			if err := ts.SnapshotNow(); err != nil {
				t.Errorf("snapshot %d: %v", n, err)
			}
			n++
		}
	}()
	var wg sync.WaitGroup
	run := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	run(func() {
		for i := range 60 {
			id := ""
			if i%3 == 2 {
				id = fmt.Sprintf(`, "id": "named-%d"`, i)
			}
			serve(http.MethodPost, "/v1/deploy", fmt.Sprintf(`{"workflow": %s, "network": %s, "algorithm": "fairload", "seed": %d%s}`, wf, nf, i, id))
		}
	})
	run(func() {
		for i := range 12 {
			id := fmt.Sprintf("fw-%d", i)
			serve(http.MethodPost, "/v1/fleet/workflows", `{"id": "`+id+`", "workflow": `+wf+`}`, http.StatusConflict)
			serve(http.MethodPost, "/v1/fleet/servers", fmt.Sprintf(`{"name": "joined-%d", "powerHz": 2e9}`, i))
			serve(http.MethodPost, "/v1/fleet/rebalance", "")
			serve(http.MethodDelete, "/v1/fleet/workflows/"+id, "", http.StatusNotFound)
		}
	})
	run(func() {
		for _, spec := range []string{spec1, spec2, spec1, spec2} {
			serve(http.MethodPost, "/v1/specs", spec)
			for range 3 {
				serve(http.MethodPost, "/v1/reconcile", `{"passes": 4}`)
			}
		}
	})
	run(func() {
		for range 2 {
			serve(http.MethodPost, "/v1/autopilot", pilot)
			serve(http.MethodPost, "/v1/autopilot", resume)
		}
	})
	wg.Wait()
	close(done)
	t.Logf("%d snapshots beside the mutations", <-snapshots)

	live, err := compositeImage(ts)
	if err != nil {
		t.Fatal(err)
	}
	if err := def.Store().Close(); err != nil {
		t.Fatal(err)
	}
	h2, def2 := durableHandler(t, dir, opts, nil)
	defer h2.Close()
	defer def2.Store().Close()
	got, err := compositeImage(defaultTenant(h2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, live) {
		t.Fatalf("recovered composite differs from the live one\n got: %.400s\nwant: %.400s", got, live)
	}
}
