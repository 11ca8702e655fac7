package wfio

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeWorkflowJSON asserts the workflow decoder is total:
// arbitrary bytes never panic, and any spec it accepts survives an
// Encode → Decode round-trip with its shape intact. The byte entry
// point Workflow accepts exactly what the reader decode accepts, equals
// it, and returns the same pointer on a second call.
func FuzzDecodeWorkflowJSON(f *testing.F) {
	f.Add([]byte(`{"name":"w","nodes":[{"name":"A","kind":"OP","cycles":1e6}],"edges":[]}`))
	f.Add([]byte(`{"name":"w","nodes":[
		{"name":"A","kind":"OP","cycles":1e6},
		{"name":"X","kind":"XOR","cycles":1e5},
		{"name":"B","kind":"OP","cycles":2e6},
		{"name":"C","kind":"OP","cycles":3e6},
		{"name":"M","kind":"XOR-JOIN","cycles":0},
		{"name":"D","kind":"OP","cycles":1e6}],
		"edges":[
		{"from":0,"to":1,"bits":8000},
		{"from":1,"to":2,"bits":8000,"prob":0.5},
		{"from":1,"to":3,"bits":8000,"prob":0.5},
		{"from":2,"to":4,"bits":8000},
		{"from":3,"to":4,"bits":8000},
		{"from":4,"to":5,"bits":8000}]}`))
	f.Add([]byte(`{"nodes":[{"kind":"AND","cycles":-1}]}`))
	f.Add([]byte(`{"name":"w","nodes":[{"name":"A","kind":"OP","cycles":1}],"edges":[{"from":0,"to":0}]}`))
	f.Add([]byte(`{"name":"w","nodes":[{"name":"A","kind":"OP","cycles":1}],"edges":[{"from":-1,"to":9}]}`))
	f.Add([]byte(`nonsense`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := DecodeWorkflow(bytes.NewReader(data))
		iw, ierr := Workflow(data)
		if (err == nil) != (ierr == nil) {
			t.Fatalf("reader decode error %v, byte entry point error %v", err, ierr)
		}
		if err != nil {
			return // rejection is fine; panics are not
		}
		if !reflect.DeepEqual(iw, w) {
			t.Fatal("byte entry point differs from the reader decode")
		}
		if again, _ := Workflow(data); again != iw && workflowBytes(w) <= internBudget {
			t.Fatal("second call decoded again")
		}
		var buf bytes.Buffer
		if err := EncodeWorkflow(&buf, w); err != nil {
			t.Fatalf("accepted workflow unencodable: %v", err)
		}
		w2, err := DecodeWorkflow(&buf)
		if err != nil {
			t.Fatalf("encoded output undecodable: %v\n%s", err, buf.String())
		}
		if w2.M() != w.M() || len(w2.Edges) != len(w.Edges) {
			t.Fatalf("round trip changed shape: %d/%d nodes, %d/%d edges",
				w.M(), w2.M(), len(w.Edges), len(w2.Edges))
		}
	})
}

// FuzzDecodeNetworkJSON asserts the network decoder is total and that
// accepted specs round-trip — including server names, which crash
// recovery depends on (see DecodeNetwork's bus branch). The byte entry
// point Network accepts exactly what the reader decode accepts, equals
// it, and returns the same pointer on a second call.
func FuzzDecodeNetworkJSON(f *testing.F) {
	f.Add([]byte(`{"name":"b","servers":[{"name":"S1","powerHz":1e9}],"bus":{"speedBps":1e8}}`))
	f.Add([]byte(`{"name":"b","servers":[
		{"name":"S1","powerHz":1e9},{"name":"joined","powerHz":2.5e9}],
		"bus":{"speedBps":1e8,"propDelay":1e-4}}`))
	f.Add([]byte(`{"name":"l","servers":[{"name":"a","powerHz":1e9},{"name":"b","powerHz":2e9}],
		"links":[{"a":0,"b":1,"speedBps":1e8}]}`))
	f.Add([]byte(`{"name":"x","servers":[],"bus":{"speedBps":0}}`))
	f.Add([]byte(`{"name":"x","servers":[{"powerHz":-5}],"bus":{"speedBps":1e8}}`))
	f.Add([]byte(`{"name":"x","servers":[{"powerHz":1}],"links":[{"a":0,"b":7,"speedBps":1}]}`))
	// Multi-region specs: region labels on a bus, on explicit links with
	// a WAN hop, and a label that survives only if the decoder copies it
	// on the bus fast path too.
	f.Add([]byte(`{"name":"geo","servers":[
		{"name":"eu/S1","powerHz":1e9,"region":"eu"},{"name":"eu/S2","powerHz":2e9,"region":"eu"}],
		"bus":{"speedBps":1e9,"propDelay":5e-5}}`))
	f.Add([]byte(`{"name":"geo2","servers":[
		{"name":"eu/S1","powerHz":1e9,"region":"eu"},{"name":"us/S1","powerHz":1e9,"region":"us"}],
		"links":[{"a":0,"b":1,"speedBps":5e7,"propDelay":0.03}]}`))
	f.Add([]byte(`{"name":"geo3","servers":[
		{"name":"a","powerHz":1e9,"region":"eu"},
		{"name":"b","powerHz":1e9,"region":"us"},
		{"name":"c","powerHz":1e9}],
		"links":[{"a":0,"b":1,"speedBps":5e7,"propDelay":0.03},
		{"a":1,"b":2,"speedBps":1e9,"propDelay":5e-5}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := DecodeNetwork(bytes.NewReader(data))
		in, ierr := Network(data)
		if (err == nil) != (ierr == nil) {
			t.Fatalf("reader decode error %v, byte entry point error %v", err, ierr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(in, n) {
			t.Fatal("byte entry point differs from the reader decode")
		}
		if again, _ := Network(data); again != in && networkBytes(n) <= internBudget {
			t.Fatal("second call decoded again")
		}
		var buf bytes.Buffer
		if err := EncodeNetwork(&buf, n); err != nil {
			t.Fatalf("accepted network unencodable: %v", err)
		}
		n2, err := DecodeNetwork(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("encoded output undecodable: %v\n%s", err, buf.String())
		}
		if n2.N() != n.N() || len(n2.Links) != len(n.Links) {
			t.Fatalf("round trip changed shape: %d/%d servers, %d/%d links", n.N(), n2.N(), len(n.Links), len(n2.Links))
		}
		for i := range n.Servers {
			if n2.Servers[i].Name != n.Servers[i].Name {
				t.Fatalf("round trip renamed server %d: %q -> %q", i, n.Servers[i].Name, n2.Servers[i].Name)
			}
			if n2.Servers[i].Region != n.Servers[i].Region {
				t.Fatalf("round trip relabeled server %d: region %q -> %q", i, n.Servers[i].Region, n2.Servers[i].Region)
			}
		}
	})
}
