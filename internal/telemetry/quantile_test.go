package telemetry_test

import (
	"math/rand"
	"testing"

	"snappif/internal/obs"
	"snappif/internal/telemetry"
)

// TestExactQuantile pins the nearest-rank definition on small hand-checked
// samples.
func TestExactQuantile(t *testing.T) {
	s := []int64{9, 1, 7, 3, 5} // sorted: 1 3 5 7 9
	cases := []struct {
		q    float64
		want int64
	}{
		{0, 1}, {0.2, 1}, {0.21, 3}, {0.5, 5}, {0.8, 7}, {0.81, 9}, {1, 9},
	}
	for _, c := range cases {
		if got := telemetry.ExactQuantile(s, c.q); got != c.want {
			t.Errorf("ExactQuantile(%v, %g) = %d, want %d", s, c.q, got, c.want)
		}
	}
	if telemetry.ExactQuantile(nil, 0.5) != 0 {
		t.Error("ExactQuantile(nil) != 0")
	}
	// The input must not be reordered.
	if s[0] != 9 || s[4] != 5 {
		t.Errorf("ExactQuantile mutated its input: %v", s)
	}
}

// TestLogHistQuantileErrorBounds drives random sample sets through both
// obs.LogHist and the exact oracle and checks the documented contract: the
// interpolated estimate stays within a factor of 2 of the exact
// nearest-rank percentile (same power-of-two bucket), and Quantile(1) is
// exactly the maximum.
func TestLogHistQuantileErrorBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() int64{
		"uniform-1k":  func() int64 { return 1 + rng.Int63n(1000) },
		"exp-ish":     func() int64 { return 1 + int64(1)<<uint(rng.Intn(20)) + rng.Int63n(64) },
		"heavy-tail":  func() int64 { return int64(1000 / (1 + rng.Intn(31))) },
		"tiny-sample": func() int64 { return 1 + rng.Int63n(8) },
	}
	sizes := map[string]int{"uniform-1k": 5000, "exp-ish": 2000, "heavy-tail": 777, "tiny-sample": 5}
	for name, gen := range dists {
		var h obs.LogHist
		samples := make([]int64, 0, sizes[name])
		for i := 0; i < sizes[name]; i++ {
			v := gen()
			h.Observe(v)
			samples = append(samples, v)
		}
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0} {
			exact := telemetry.ExactQuantile(samples, q)
			got := h.Quantile(q)
			if got > exact*2 || exact > got*2 {
				t.Errorf("%s q=%g: interpolated %d vs exact %d — outside the factor-2 bound", name, q, got, exact)
			}
		}
		if got := h.Quantile(1.0); got != telemetry.ExactQuantile(samples, 1) {
			t.Errorf("%s: Quantile(1) = %d, want the exact max %d", name, got, telemetry.ExactQuantile(samples, 1))
		}
	}
}
