package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// bodyEnds are the ways a fuzzed body may end: at EOF, with the error
// http.MaxBytesReader returns once a body passes MaxRequestBytes, or
// with a connection that broke mid-body.
var bodyEnds = []error{nil, &http.MaxBytesError{Limit: MaxRequestBytes}, io.ErrUnexpectedEOF}

// sameDecode decodes body, followed by end, in place and through the
// reference, and fails unless both answer the same status and bytes and
// decode the same request.
func sameDecode(t *testing.T, body []byte, end error) {
	t.Helper()
	request := func() *http.Request {
		var rd io.Reader = bytes.NewReader(body)
		if end != nil {
			rd = io.MultiReader(rd, errReader{end})
		}
		return httptest.NewRequest(http.MethodPost, "/v1/deploy", rd)
	}
	fast, ref := httptest.NewRecorder(), httptest.NewRecorder()
	var fastReq, refReq deployRequest
	var buf bytes.Buffer
	fastOK := decodeEnvelope(fast, request(), &buf, &fastReq)
	refOK := decodeBody(ref, request(), &refReq)
	if fastOK != refOK || fast.Code != ref.Code || !bytes.Equal(fast.Body.Bytes(), ref.Body.Bytes()) {
		t.Fatalf("in place: %v %d %q\nreference: %v %d %q", fastOK, fast.Code, fast.Body, refOK, ref.Code, ref.Body)
	}
	if !reflect.DeepEqual(fastReq, refReq) {
		t.Fatalf("in place decoded %+v\nreference decoded %+v", fastReq, refReq)
	}
}

// FuzzDeployEnvelope holds the in-place deploy decode to its reference,
// decodeBody's json.Decoder, on the same body: both answer the same
// status and bytes, and a body both accept decodes to the same request.
// end picks how the body ends (bodyEnds); TestDeployEnvelopeOverLimit
// sends real bodies past MaxRequestBytes.
func FuzzDeployEnvelope(f *testing.F) {
	for _, seed := range []string{
		`{"workflow": {"name": "w"}, "network": {"name": "n"}, "algorithm": "holm", "seed": 3}`,
		`{"workflowWdl": "workflow w op A 20M", "id": "x", "timeoutMs": 5, "maxExecTime": 1.5,
		  "maxTimePenalty": 0, "maxServerLoad": 2, "maxMakespan": 3}`,
		// Case-folded keys, the Kelvin sign and the long s among them.
		`{"ALGORITHM": "holm", "Seed": 1, "ſeed": 2, "timeoutms": 5, "ID": "K", "worKflow": {}}`,
		// Duplicate keys: the last value wins.
		`{"seed": 1, "seed": 2, "workflow": {"a": 1}, "workflow": [1, "}"], "id": "a", "Id": "b"}`,
		// Escaped keys, which only the reference decodes.
		`{"\u0073eed": 1}`,
		`{"se\"ed": 1}`,
		`{"seed\\": 1}`,
		// Null instances and nulls elsewhere.
		`{"workflow": null, "network": null}`,
		`{"seed": null, "id": null}`,
		// Trailing data after the envelope.
		`{"seed": 1} {"seed": 2}`,
		`{"seed": 1} x`,
		`{"seed": 1}` + " \t\r\n",
		// An empty body, other values and broken documents.
		``,
		`   `,
		`null`,
		`[]`,
		`"seed"`,
		`7`,
		`{}`,
		`{"seed": "x"}`,
		`{"seed": -1}`,
		`{"nope": 1}`,
		`{"seed": 1`,
		`{"workflow": {"x": "\"}"}, "network": [{"y": [true, false, null]}, -1.5e3]}`,
		// Members the walk copies out: escapes, nesting, odd spacing.
		`{"id": "a\"b\\", "algorithm": "holm\u00e9", "seed": 1e2}`,
		`{"id": {"a": 1}, "workflow": {}}`,
		`{"id": ["x"]}`,
		` {"seed" : 7 , "network" :{"s":[1,2,{"t":"]"}]} ,"id":"n"}`,
		`{"seed": 1,}`,
		`{,"seed": 1}`,
		`{"seed": 1 "id": "x"}`,
		`{"workflow": {"a": 1}}, "network": {}}`,
		`{"algorithm": "a", "ALGORITHM": "b", "Algorithm": null}`,
	} {
		for end := range bodyEnds {
			f.Add([]byte(seed), uint8(end))
		}
	}
	// A real deploy body: the deploy-cached workload's envelope.
	f.Add(cachedDeployBodies(f, 1, false)[0], uint8(0))
	f.Fuzz(func(t *testing.T, body []byte, end uint8) {
		sameDecode(t, body, bodyEnds[int(end)%len(bodyEnds)])
	})
}

// TestDeployEnvelopeOverLimit sends bodies past MaxRequestBytes through
// the real limit: an envelope followed by spaces, which the reference
// decodes without reading to the limit and the in-place path hands to
// it, and an envelope still open at the limit, which both answer 413.
func TestDeployEnvelopeOverLimit(t *testing.T) {
	pad := bytes.Repeat([]byte(" "), MaxRequestBytes)
	for _, head := range []string{`{"seed": 1, "id": "x"}`, `{"seed": 1, "id": "`} {
		sameDecode(t, append([]byte(head), pad...), nil)
	}
	rec := httptest.NewRecorder()
	var buf bytes.Buffer
	var req deployRequest
	body := append([]byte(`{"id": "`), pad...)
	if decodeEnvelope(rec, httptest.NewRequest(http.MethodPost, "/v1/deploy", bytes.NewReader(body)), &buf, &req) ||
		rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("an envelope open at the limit answered %d %s, want 413", rec.Code, rec.Body)
	}
}

// TestDeployKeysMatchRequest requires the in-place decode's key list to
// be deployRequest's JSON names, in field order.
func TestDeployKeysMatchRequest(t *testing.T) {
	var names []string
	rt := reflect.TypeOf(deployRequest{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.Anonymous {
			t.Fatalf("deployRequest embeds %s: list its fields in deployKeys and here", f.Name)
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "-" || !f.IsExported() {
			continue
		}
		if name == "" {
			name = f.Name
		}
		names = append(names, name)
	}
	if !reflect.DeepEqual(names, deployKeys) {
		t.Fatalf("deployRequest's JSON names are %q, deployKeys %q", names, deployKeys)
	}
}

// TestInPlaceDecodeAliasesBody checks the saving the in-place path
// exists for: the decoded workflow and network are slices of the body
// buffer, not copies, and cannot be appended into it.
func TestInPlaceDecodeAliasesBody(t *testing.T) {
	body := `{"workflow": {"name": "w"}, "network": {"name": "n"}}`
	var buf bytes.Buffer
	var req deployRequest
	rec := httptest.NewRecorder()
	if !decodeEnvelope(rec, httptest.NewRequest(http.MethodPost, "/v1/deploy", strings.NewReader(body)), &buf, &req) {
		t.Fatalf("decode failed: %d %s", rec.Code, rec.Body)
	}
	doc := buf.Bytes()
	for _, v := range []inPlace{req.Workflow, req.Network} {
		start := bytes.Index(doc, v)
		if start < 0 || &doc[start] != &v[0] {
			t.Fatalf("%s is not a slice of the body", v)
		}
		if cap(v) != len(v) {
			t.Fatalf("%s has capacity %d past its %d bytes", v, cap(v), len(v))
		}
	}
}

// TestWriteJSONMatchesEncoder is the response golden: writeJSON's pooled
// encoding answers exactly what a json.Encoder with SetIndent("", "  ")
// writes. It covers a served deploy response, an error, escaping, a
// response too large to pool and a value that fails to encode (an empty
// body, as before), each twice so the second goes through a reused
// writer.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	wf, n := specPair(t)
	resp, err := http.Post(srv.URL+"/v1/deploy", "application/json",
		strings.NewReader(`{"workflow": `+wf+`, "network": `+n+`, "algorithm": "holm"}`))
	if err != nil {
		t.Fatal(err)
	}
	var served bytes.Buffer
	_, err = served.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy: %d %v", resp.StatusCode, err)
	}
	var deployed deployResponse
	if err := json.Unmarshal(served.Bytes(), &deployed); err != nil {
		t.Fatal(err)
	}
	big := make([]float64, 20000)
	for i := range big {
		big[i] = float64(i) / 7
	}
	cases := []struct {
		name string
		code int
		v    any
	}{
		{"deploy", http.StatusOK, deployed},
		{"error", http.StatusBadRequest, apiError{Error: `decoding request: json: unknown field "<a&b>"` + "   \x01é"}},
		{"map", http.StatusOK, map[string]any{"count": 0, "deployments": []deployEntry{}, "nil": nil}},
		{"too large to pool", http.StatusOK, Metrics{Loads: big}},
		{"unencodable", http.StatusInternalServerError, Metrics{ExecTime: math.NaN()}},
	}
	for _, tc := range cases {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		_ = enc.Encode(tc.v)
		if tc.name == "deploy" && !bytes.Equal(served.Bytes(), want.Bytes()) {
			t.Fatalf("served deploy response\n%s\nre-encodes as\n%s", served.Bytes(), want.Bytes())
		}
		for round := 0; round < 2; round++ {
			rec := httptest.NewRecorder()
			writeJSON(rec, tc.code, tc.v)
			if rec.Code != tc.code || rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("%s: status %d, content type %q", tc.name, rec.Code, rec.Header().Get("Content-Type"))
			}
			if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
				t.Fatalf("%s (round %d): writeJSON wrote\n%q\nthe encoder writes\n%q", tc.name, round, rec.Body, want.Bytes())
			}
		}
	}
}
