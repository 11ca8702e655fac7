package network

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

const mbps = 1e6

func line3(t *testing.T) *Network {
	t.Helper()
	n, err := NewLine("l3", []float64{1e9, 2e9, 3e9}, []float64{10 * mbps, 100 * mbps}, []float64{0.001, 0.002})
	if err != nil {
		t.Fatalf("NewLine: %v", err)
	}
	return n
}

func bus4(t *testing.T) *Network {
	t.Helper()
	n, err := NewBus("b4", []float64{1e9, 2e9, 2e9, 3e9}, 100*mbps, 0.0005)
	if err != nil {
		t.Fatalf("NewBus: %v", err)
	}
	return n
}

func TestNewLineShape(t *testing.T) {
	n := line3(t)
	if n.N() != 3 || len(n.Links) != 2 {
		t.Fatalf("line3 has %d servers, %d links", n.N(), len(n.Links))
	}
	if n.Topology() != Line {
		t.Fatalf("topology = %v", n.Topology())
	}
	if n.TotalPower() != 6e9 {
		t.Fatalf("TotalPower = %v", n.TotalPower())
	}
}

func TestNewBusShape(t *testing.T) {
	n := bus4(t)
	if n.N() != 4 || len(n.Links) != 6 {
		t.Fatalf("bus4 has %d servers, %d links", n.N(), len(n.Links))
	}
	if n.Topology() != Bus {
		t.Fatalf("topology = %v", n.Topology())
	}
}

func TestValidationErrors(t *testing.T) {
	srv := []Server{{Name: "a", PowerHz: 1e9}, {Name: "b", PowerHz: 1e9}}
	cases := []struct {
		name    string
		servers []Server
		links   []Link
		want    string
	}{
		{"no servers", nil, nil, "no servers"},
		{"bad power", []Server{{PowerHz: 0}}, nil, "invalid power"},
		{"self loop", srv, []Link{{A: 0, B: 0, SpeedBps: 1}}, "self-loop"},
		{"out of range", srv, []Link{{A: 0, B: 9, SpeedBps: 1}}, "out-of-range"},
		{"duplicate", srv, []Link{{A: 0, B: 1, SpeedBps: 1}, {A: 1, B: 0, SpeedBps: 1}}, "duplicate"},
		{"zero speed", srv, []Link{{A: 0, B: 1, SpeedBps: 0}}, "invalid speed"},
		{"negative delay", srv, []Link{{A: 0, B: 1, SpeedBps: 1, PropDelay: -1}}, "negative propagation"},
		{"disconnected", srv, nil, "disconnected"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.name, tc.servers, tc.links)
			if err == nil {
				t.Fatal("invalid network accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestDisconnectedComponents(t *testing.T) {
	srv := []Server{{PowerHz: 1}, {PowerHz: 1}, {PowerHz: 1}}
	_, err := New("dc", srv, []Link{{A: 0, B: 1, SpeedBps: 1}})
	if err == nil || !strings.Contains(err.Error(), "disconnected") {
		t.Fatalf("disconnected graph accepted: %v", err)
	}
}

func TestLineConstructorValidation(t *testing.T) {
	if _, err := NewLine("x", nil, nil, nil); err == nil {
		t.Fatal("empty line accepted")
	}
	if _, err := NewLine("x", []float64{1, 2}, []float64{1, 1}, []float64{0}); err == nil {
		t.Fatal("mismatched link count accepted")
	}
}

// TestServerCap: the constructors reject MaxServers+1 servers and
// accept exactly MaxServers, and a bus at the cap cannot grow.
func TestServerCap(t *testing.T) {
	ones := func(k int) []float64 {
		v := make([]float64, k)
		for i := range v {
			v[i] = 1e9
		}
		return v
	}
	over := MaxServers + 1
	for name, build := range map[string]func() (*Network, error){
		"New":     func() (*Network, error) { return New("g", make([]Server, over), nil) },
		"NewBus":  func() (*Network, error) { return NewBus("b", ones(over), 100*mbps, 0) },
		"NewLine": func() (*Network, error) { return NewLine("l", ones(over), ones(over-1), make([]float64, over-1)) },
	} {
		if _, err := build(); err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
			t.Errorf("%s with %d servers: err = %v, want the server cap", name, over, err)
		}
	}

	if _, err := NewLine("l", ones(MaxServers), ones(MaxServers-1), make([]float64, MaxServers-1)); err != nil {
		t.Fatalf("NewLine at the cap: %v", err)
	}
	bus, err := NewBus("b", ones(MaxServers), 100*mbps, 0)
	if err != nil {
		t.Fatalf("NewBus at the cap: %v", err)
	}
	if _, err := bus.AddBusServer("extra", 1e9); err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
		t.Fatalf("AddBusServer past the cap: err = %v, want the server cap", err)
	}
}

func TestBusTransferUniform(t *testing.T) {
	n := bus4(t)
	b := 1000.0
	ref := n.TransferTime(0, 1, b)
	for i := 0; i < n.N(); i++ {
		for j := 0; j < n.N(); j++ {
			if i == j {
				if n.TransferTime(i, j, b) != 0 {
					t.Fatalf("same-server transfer not free")
				}
				continue
			}
			if got := n.TransferTime(i, j, b); math.Abs(got-ref) > 1e-15 {
				t.Fatalf("bus transfer %d->%d = %v, want %v", i, j, got, ref)
			}
			if n.Hops(i, j) != 1 {
				t.Fatalf("bus hop count %d->%d = %d", i, j, n.Hops(i, j))
			}
		}
	}
	want := b/(100*mbps) + 0.0005
	if math.Abs(ref-want) > 1e-12 {
		t.Fatalf("bus transfer = %v, want %v", ref, want)
	}
}

func TestLineTransferAccumulates(t *testing.T) {
	n := line3(t)
	b := 8000.0
	// 0->2 crosses both links: b/10M + 0.001 + b/100M + 0.002.
	want := b/(10*mbps) + 0.001 + b/(100*mbps) + 0.002
	if got := n.TransferTime(0, 2, b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("line transfer 0->2 = %v, want %v", got, want)
	}
	if n.Hops(0, 2) != 2 {
		t.Fatalf("hops 0->2 = %d", n.Hops(0, 2))
	}
	if n.Hops(0, 1) != 1 || n.Hops(2, 1) != 1 {
		t.Fatal("adjacent hops wrong")
	}
}

func TestTransferSymmetry(t *testing.T) {
	check := func(seed uint64) bool {
		n := line3(t)
		for i := 0; i < n.N(); i++ {
			for j := 0; j < n.N(); j++ {
				if math.Abs(n.TransferTime(i, j, 5000)-n.TransferTime(j, i, 5000)) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestTransferMonotoneInSize(t *testing.T) {
	n := line3(t)
	prev := -1.0
	for _, bits := range []float64{0, 100, 1e4, 1e6, 1e8} {
		cur := n.TransferTime(0, 2, bits)
		if cur < prev {
			t.Fatalf("transfer time decreased for larger message: %v < %v", cur, prev)
		}
		prev = cur
	}
}

func TestLinkBetween(t *testing.T) {
	n := line3(t)
	if li := n.LinkBetween(0, 1); li != 0 {
		t.Fatalf("LinkBetween(0,1) = %d", li)
	}
	if li := n.LinkBetween(0, 2); li != -1 {
		t.Fatalf("LinkBetween(0,2) = %d, want -1", li)
	}
	if li := n.LinkBetween(2, 1); li != 1 {
		t.Fatalf("LinkBetween(2,1) = %d", li)
	}
}

func TestPathLinks(t *testing.T) {
	n := line3(t)
	p := n.pathLink[0][2]
	if len(p) != 2 || p[0] != 0 || p[1] != 1 {
		t.Fatalf("path links 0->2 = %v", p)
	}
	if got := n.pathLink[2][0]; len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("path links 2->0 = %v", got)
	}
}

func TestGeneralTopologyRouting(t *testing.T) {
	// Triangle where the direct 0-2 link is very slow: routing must prefer
	// the two-hop fast path for the reference message size.
	srv := []Server{{PowerHz: 1e9}, {PowerHz: 1e9}, {PowerHz: 1e9}}
	links := []Link{
		{A: 0, B: 1, SpeedBps: 1000 * mbps},
		{A: 1, B: 2, SpeedBps: 1000 * mbps},
		{A: 0, B: 2, SpeedBps: 0.01 * mbps},
	}
	n, err := New("tri", srv, links)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if n.Topology() != General {
		t.Fatalf("topology = %v", n.Topology())
	}
	if n.Hops(0, 2) != 2 {
		t.Fatalf("routing chose the slow direct link: hops = %d", n.Hops(0, 2))
	}
}

func TestSingleServerNetwork(t *testing.T) {
	n, err := New("solo", []Server{{Name: "only", PowerHz: 1e9}}, nil)
	if err != nil {
		t.Fatalf("single-server network rejected: %v", err)
	}
	if n.TransferTime(0, 0, 1e9) != 0 {
		t.Fatal("self transfer not free")
	}
}

func TestDetectBusFromGeneralConstructor(t *testing.T) {
	srv := []Server{{PowerHz: 1}, {PowerHz: 1}, {PowerHz: 1}}
	links := []Link{
		{A: 0, B: 1, SpeedBps: 10, PropDelay: 1},
		{A: 0, B: 2, SpeedBps: 10, PropDelay: 1},
		{A: 1, B: 2, SpeedBps: 10, PropDelay: 1},
	}
	n, err := New("g", srv, links)
	if err != nil {
		t.Fatal(err)
	}
	if n.Topology() != Bus {
		t.Fatalf("uniform complete graph not detected as bus: %v", n.Topology())
	}
}

func TestDetectLineFromGeneralConstructor(t *testing.T) {
	srv := []Server{{PowerHz: 1}, {PowerHz: 1}, {PowerHz: 1}}
	links := []Link{
		{A: 2, B: 1, SpeedBps: 10},
		{A: 1, B: 0, SpeedBps: 20},
	}
	n, err := New("g", srv, links)
	if err != nil {
		t.Fatal(err)
	}
	if n.Topology() != Line {
		t.Fatalf("chain not detected as line: %v", n.Topology())
	}
}

func TestStringAndTopologyString(t *testing.T) {
	n := bus4(t)
	if !strings.Contains(n.String(), "bus") {
		t.Fatalf("String() = %q", n.String())
	}
	if Line.String() != "line" || Bus.String() != "bus" || General.String() != "general" {
		t.Fatal("Topology.String wrong")
	}
}

func TestMustConstructorsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"bus":  func() { MustNewBus("x", nil, 1, 0) },
		"line": func() { MustNewLine("x", nil, nil, nil) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			fn()
		})
	}
}

func TestAdjacent(t *testing.T) {
	n := line3(t)
	if got := n.adj[1]; len(got) != 2 {
		t.Fatalf("middle server adjacency = %v", got)
	}
	if got := n.adj[0]; len(got) != 1 {
		t.Fatalf("end server adjacency = %v", got)
	}
}
