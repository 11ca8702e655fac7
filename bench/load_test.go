package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"wsdeploy/internal/stats"
)

// TestLatencyFromDueTime stalls a fake server once for 100 ms under a
// single sender: the requests that came due during the stall waited for
// the sender, and that wait must show in their latency.
func TestLatencyFromDueTime(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(100 * time.Millisecond)
		}
	}))
	defer srv.Close()
	cl, _ := newClient(1)
	defer cl.Transport.(*http.Transport).CloseIdleConnections()

	var arrivals []arrival
	for i := 0; i < 20; i++ {
		arrivals = append(arrivals, arrival{at: time.Duration(i) * 10 * time.Millisecond})
	}
	res := runOpen(context.Background(), arrivals, 1, func(ctx context.Context, _, _ int) error {
		resp, err := cl.Get(srv.URL)
		if err != nil {
			return err
		}
		return resp.Body.Close()
	})
	if len(res.samples) != len(arrivals) {
		t.Fatalf("%d samples for %d arrivals", len(res.samples), len(arrivals))
	}
	// Sample i was due at 10i ms and could not start before the stall
	// ended at about 100 ms, so it waited about 100-10i ms.
	for i, s := range res.samples[1:5] {
		due := time.Duration(i+1) * 10 * time.Millisecond
		if want := 100*time.Millisecond - due - 5*time.Millisecond; s.lat < want {
			t.Errorf("request due at %v: latency %v, want at least %v (the stall it queued behind)", due, s.lat, want)
		}
	}
	if last := res.samples[len(res.samples)-1].lat; last > 50*time.Millisecond {
		t.Errorf("last request, due long after the stall: latency %v", last)
	}
}

func TestMixCycleKeepsProportions(t *testing.T) {
	for _, c := range []struct {
		rates []float64
		want  string
	}{
		{[]float64{200}, "0"},
		{[]float64{54, 6}, "0000010000"},
		{[]float64{10, 30}, "1011"},
	} {
		got := ""
		for _, s := range mixCycle(c.rates) {
			got += string(rune('0' + s))
		}
		if got != c.want {
			t.Errorf("mixCycle(%v) = %s, want %s", c.rates, got, c.want)
		}
	}
}

func TestScheduleIsSeededAndCounted(t *testing.T) {
	a := schedule(stats.NewRNG(7), []float64{10, 30}, 2*time.Second)
	b := schedule(stats.NewRNG(7), []float64{10, 30}, 2*time.Second)
	if len(a) != 80 {
		t.Fatalf("%d arrivals, want 20+60", len(a))
	}
	perStream := [2]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between two draws of one seed: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i].at < a[i-1].at {
			t.Fatalf("arrivals out of due order at %d", i)
		}
		perStream[a[i].stream]++
	}
	if perStream != [2]int{20, 60} {
		t.Errorf("per-stream counts %v, want [20 60]", perStream)
	}
}
