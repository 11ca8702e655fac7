package network

import "testing"

func TestAddBusServer(t *testing.T) {
	n, err := NewBus("b", []float64{1e9, 2e9}, 100*mbps, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := n.AddBusServer("S3", 3e9)
	if err != nil {
		t.Fatal(err)
	}
	if grown.N() != 3 || grown.Topology() != Bus {
		t.Fatalf("grown: %s", grown)
	}
	if grown.Servers[2].Name != "S3" || grown.Servers[2].PowerHz != 3e9 {
		t.Fatalf("new server: %+v", grown.Servers[2])
	}
	// Uniform bus costs preserved, including to the new server.
	want := n.TransferTime(0, 1, 1e6)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i == j {
				continue
			}
			if got := grown.TransferTime(i, j, 1e6); got != want {
				t.Fatalf("transfer %d->%d = %v, want %v", i, j, got, want)
			}
		}
	}
	// Original untouched.
	if n.N() != 2 {
		t.Fatal("AddBusServer mutated the receiver")
	}
}

func TestAddBusServerErrors(t *testing.T) {
	line, err := NewLine("l", []float64{1e9, 1e9, 1e9}, []float64{1e7, 1e7}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := line.AddBusServer("x", 1e9); err == nil {
		t.Fatal("grew a line as a bus")
	}
	bus, err := NewBus("b", []float64{1e9, 1e9}, 1e8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bus.AddBusServer("x", -1); err == nil {
		t.Fatal("negative power accepted")
	}
}
