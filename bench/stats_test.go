package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so the helper must sort
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0: refused
	}{
		{200, 0.95, 190}, // 10 samples beyond
		{199, 0.95, 0},   // 9 beyond
		{1000, 0.99, 990},
		{999, 0.99, 0},
		{21, 0.50, 11},
		{20, 0.50, 10},
		{19, 0.50, 0},
		{0, 0.50, 0},
	} {
		got, err := percentile(seq(c.n), c.p)
		switch {
		case c.want == 0 && err == nil:
			t.Errorf("p%g of %d samples = %v, want a refusal", 100*c.p, c.n, got)
		case c.want != 0 && err != nil:
			t.Errorf("p%g of %d samples refused: %v", 100*c.p, c.n, err)
		case c.want != 0 && got != c.want:
			t.Errorf("p%g of %d samples = %v, want %v", 100*c.p, c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median of 4 = %v", m)
	}
}
