package httpapi

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestStatusCodeTable pins the API's error contract: one table walks
// every error class the surface can produce — malformed and oversized
// bodies, bad routes and methods, missing fleet state, domain
// rejections — and asserts both the status code and that error
// responses carry the standard JSON envelope.
func TestStatusCodeTable(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	wf, nf := specPair(t)

	// A body that trips MaxBytesReader: valid JSON prefix, then pure
	// whitespace padding past the limit so only the size can be at fault.
	oversized := `{"network": ` + nf + strings.Repeat(" ", MaxRequestBytes) + "}"

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		code   int
	}{
		{"ok deploy", "POST", "/v1/deploy", fmt.Sprintf(`{"workflow": %s, "network": %s}`, wf, nf), http.StatusOK},
		{"garbage json", "POST", "/v1/deploy", "{", http.StatusBadRequest},
		{"unknown field", "POST", "/v1/deploy", `{"bogus": 1}`, http.StatusBadRequest},
		{"missing network", "POST", "/v1/deploy", fmt.Sprintf(`{"workflow": %s}`, wf), http.StatusBadRequest},
		{"unknown algorithm", "POST", "/v1/deploy", fmt.Sprintf(`{"workflow": %s, "network": %s, "algorithm": "nope"}`, wf, nf), http.StatusBadRequest},
		{"inapplicable algorithm", "POST", "/v1/deploy", fmt.Sprintf(`{"workflow": %s, "network": %s, "algorithm": "lineline"}`, wf, nf), http.StatusUnprocessableEntity},
		{"oversized deploy body", "POST", "/v1/deploy", oversized, http.StatusRequestEntityTooLarge},
		{"oversized fleet body", "PUT", "/v1/fleet", oversized, http.StatusRequestEntityTooLarge},
		{"oversized restore body", "PUT", "/v1/fleet/snapshot", oversized, http.StatusRequestEntityTooLarge},
		{"unknown route", "GET", "/v1/nope", "", http.StatusNotFound},
		{"wrong method", "GET", "/v1/deploy", "", http.StatusMethodNotAllowed},
		{"fleet status before create", "GET", "/v1/fleet/status", "", http.StatusConflict},
		{"fleet mutation before create", "POST", "/v1/fleet/rebalance", "", http.StatusConflict},
		{"fleet create bad network", "PUT", "/v1/fleet", `{"network": {"name":"x","servers":[],"bus":{"speedBps":1}}}`, http.StatusBadRequest},
		{"unknown tenant", "POST", "/v1/tenants/ghost/deploy", fmt.Sprintf(`{"workflow": %s, "network": %s}`, wf, nf), http.StatusNotFound},
		{"bad tenant name", "POST", "/v1/tenants", `{"name": "Not Valid"}`, http.StatusBadRequest},
		{"delete default tenant", "DELETE", "/v1/tenants/default", "", http.StatusForbidden},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, out := do(t, tc.method, srv.URL+tc.path, tc.body)
			if resp.StatusCode != tc.code {
				t.Fatalf("%s %s: status %d, want %d: %v", tc.method, tc.path, resp.StatusCode, tc.code, out)
			}
			if tc.code >= 400 && tc.code != http.StatusMethodNotAllowed && tc.code != http.StatusNotFound {
				if s, _ := out["error"].(string); s == "" {
					t.Fatalf("%s %s: %d response lacks the JSON error envelope: %v", tc.method, tc.path, tc.code, out)
				}
			}
		})
	}
}

// TestStatusCodeJournalFailure pins the durable-handler contract: when
// the store cannot persist a mutation, every journaled route answers
// 503 — the store is sick, not the request, so the client should retry
// once durability is back — rather than acknowledging state the log
// could lose.
func TestStatusCodeJournalFailure(t *testing.T) {
	srv, st := durableServer(t, t.TempDir())
	defer srv.Close()
	wf, nf := specPair(t)
	mustOK(t, srv, http.MethodPut, "/v1/fleet", fmt.Sprintf(`{"network": %s}`, nf))
	snapshot := getBody(t, srv, "/v1/fleet/snapshot")
	mustOK(t, srv, http.MethodPost, "/v1/specs", specBody(t, "app", "wf-a"))

	// Kill the store out from under the handler: every journaled
	// mutation must now refuse with a 503.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		method string
		path   string
		body   string
	}{
		{"fleet create", "PUT", "/v1/fleet", fmt.Sprintf(`{"network": %s}`, nf)},
		{"fleet restore", "PUT", "/v1/fleet/snapshot", snapshot},
		{"deploy ledger commit", "POST", "/v1/deploy", fmt.Sprintf(`{"workflow": %s, "network": %s}`, wf, nf)},
		{"spec put", "POST", "/v1/specs", specBody(t, "other", "wf-b")},
		{"spec delete", "DELETE", "/v1/specs/app", ""},
		{"autopilot run", "POST", "/v1/autopilot", autopilotBody(t, true, "")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, out := do(t, tc.method, srv.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("%s with dead store: status %d, want 503: %v", tc.name, resp.StatusCode, out)
			}
			if s, _ := out["error"].(string); s == "" {
				t.Fatalf("503 response lacks the JSON error envelope: %v", out)
			}
		})
	}
}
