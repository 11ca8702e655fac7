package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"wsdeploy/internal/gen"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/wfio"
)

// freshNames numbers the instance names of fresh deploy bodies, so no
// two bodies built in one process carry the same instance bytes.
var freshNames atomic.Int64

// cachedDeployBodies returns k POST /v1/deploy bodies for the
// deploy-cached workload's largest class: a Class C 84-operation linear
// workflow on a 12-server 100 Mbps bus, planned with localsearch, body i
// carrying seed i. localsearch ignores the seed, so every body has the
// same plan. With fresh, every body also gives the workflow and the
// network names no earlier body used: its instance bytes are new, while
// its plan key, which leaves out names, is not.
func cachedDeployBodies(tb testing.TB, k int, fresh bool) [][]byte {
	tb.Helper()
	cfg := gen.ClassC()
	r := stats.NewRNG(84)
	w, err := cfg.LinearWorkflow(r, 84)
	if err != nil {
		tb.Fatal(err)
	}
	n, err := cfg.BusNetworkWithSpeed(r, 12, 100*gen.Mbps)
	if err != nil {
		tb.Fatal(err)
	}
	bodies := make([][]byte, k)
	for i := range bodies {
		if fresh {
			id := freshNames.Add(1)
			w.Name, n.Name = fmt.Sprintf("wf-%d", id), fmt.Sprintf("net-%d", id)
		}
		var wbuf, nbuf bytes.Buffer
		if err := wfio.EncodeWorkflow(&wbuf, w); err != nil {
			tb.Fatal(err)
		}
		if err := wfio.EncodeNetwork(&nbuf, n); err != nil {
			tb.Fatal(err)
		}
		// Marshal compacts the instances, as wsbench's clients send them.
		body, err := json.Marshal(map[string]any{
			"workflow":  json.RawMessage(wbuf.Bytes()),
			"network":   json.RawMessage(nbuf.Bytes()),
			"algorithm": "localsearch",
			"seed":      i,
		})
		if err != nil {
			tb.Fatal(err)
		}
		bodies[i] = body
	}
	return bodies
}

// serveDeploy sends one deploy body through h in memory.
func serveDeploy(tb testing.TB, h http.Handler, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/deploy", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("deploy: status %d: %s", rec.Code, rec.Body)
	}
}

// BenchmarkDeployCached times one POST /v1/deploy whose plan is already
// cached, on an in-memory handler: the request's envelope and instance
// decode, the plan-cache lookup, the ledger commit and the response.
// repeat sends the same instance bytes every time; fresh renames the
// workflow and network in every request, so each is a plan-cache hit
// whose instance bytes are new.
func BenchmarkDeployCached(b *testing.B) {
	for _, tc := range []struct {
		name  string
		fresh bool
	}{{"repeat", false}, {"fresh", true}} {
		b.Run(tc.name, func(b *testing.B) {
			h := NewHandler()
			defer h.Close()
			bodies := cachedDeployBodies(b, b.N+1, tc.fresh)
			serveDeploy(b, h, bodies[b.N]) // plans once, warming the plan cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveDeploy(b, h, bodies[i])
			}
		})
	}
}
