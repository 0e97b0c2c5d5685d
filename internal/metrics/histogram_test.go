package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"sais/internal/rng"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Errorf("empty histogram not all-zero: n=%d mean=%v p50=%v", h.Count(), h.Mean(), h.Percentile(50))
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for v := 1.0; v <= 100; v++ {
		h.Add(v)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("mean = %v, want 50.5 exactly (sum is tracked)", got)
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	if got := h.Percentile(0); got != 1 {
		t.Errorf("p0 = %v, want min", got)
	}
	if got := h.Percentile(100); got != 100 {
		t.Errorf("p100 = %v, want max", got)
	}
	p50 := h.Percentile(50)
	if math.Abs(p50-50.5) > 0.05*50.5 {
		t.Errorf("p50 = %v, want ≈50.5", p50)
	}
}

func TestHistogramClampsBadInputs(t *testing.T) {
	var h Histogram
	h.Add(-5)
	h.Add(math.NaN())
	h.Add(3)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 0 {
		t.Errorf("min = %v, want 0 (negatives and NaN clamp)", h.Min())
	}
	if got := h.Percentile(100); got != 3 {
		t.Errorf("p100 = %v", got)
	}
}

// TestHistogramMerge: merging loses nothing, nil and empty operands
// included. Integer-valued samples give a bit-identical histogram
// however they are grouped before merging — one accumulator, one per
// node, one per engine over interleaved nodes, or random groups merged
// in a random order. Count, min, max and the bucket counts do not
// depend on grouping, and the float64 sum of whole numbers stays exact
// below 2^53, so the mean cannot move.
func TestHistogramMerge(t *testing.T) {
	var a, b, whole Histogram
	for v := 1.0; v <= 50; v++ {
		a.Add(v)
		whole.Add(v)
	}
	for v := 51.0; v <= 100; v++ {
		b.Add(v)
		whole.Add(v)
	}
	a.Merge(&b)
	a.Merge(nil)
	a.Merge(&Histogram{})
	if a.Count() != whole.Count() || a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatalf("merged n/min/max = %d/%v/%v, want %d/%v/%v",
			a.Count(), a.Min(), a.Max(), whole.Count(), whole.Min(), whole.Max())
	}
	for _, p := range []float64{25, 50, 95, 99} {
		if got, want := a.Percentile(p), whole.Percentile(p); got != want {
			t.Errorf("p%v: merged %v != whole %v", p, got, want)
		}
	}

	check := func(seed uint32, count uint16, nodes, engines uint8) bool {
		r := rng.New(uint64(seed) | 1)
		n := int(count%3000) + 1
		scale := math.Ldexp(1, 10+r.Intn(26)) // ~1 µs .. ~34 s in ns
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Round(r.Exp(scale))
		}
		nNodes := int(nodes%64) + 1
		nEngines := int(engines%8) + 1
		node := make([]int, n) // the node each sample arrives at
		for i := range node {
			node[i] = r.Intn(nNodes)
		}

		var one Histogram
		for _, x := range xs {
			one.Add(x)
		}
		perNode := make([]Histogram, nNodes)
		perEngine := make([]Histogram, nEngines)
		random := make([]Histogram, 1+r.Intn(16))
		for i, x := range xs {
			perNode[node[i]].Add(x)
			perEngine[node[i]%nEngines].Add(x)
			random[r.Intn(len(random))].Add(x)
		}
		var byNode, byRandom Histogram
		for i := range perNode {
			byNode.Merge(&perNode[i])
		}
		for _, i := range r.Perm(len(random)) {
			byRandom.Merge(&random[i])
		}
		byEngine := &perEngine[0]
		for i := 1; i < nEngines; i++ {
			byEngine.Merge(&perEngine[i])
		}

		same := func(name string, h *Histogram) bool {
			pairs := [][2]float64{
				{float64(h.Count()), float64(one.Count())},
				{h.Mean(), one.Mean()}, {h.Min(), one.Min()}, {h.Max(), one.Max()},
				{h.Percentile(50), one.Percentile(50)},
				{h.Percentile(95), one.Percentile(95)},
				{h.Percentile(99), one.Percentile(99)},
			}
			for k, p := range pairs {
				if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
					t.Logf("n=%d nodes=%d engines=%d: %s statistic %d = %v, one accumulator %v",
						n, nNodes, nEngines, name, k, p[0], p[1])
					return false
				}
			}
			return true
		}
		return same("per node", &byNode) && same("per engine", byEngine) && same("random groups", &byRandom)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestHistogramMatchesPercentile: histogram percentiles agree with
// metrics.Percentile on the raw slice within the bucket resolution,
// 0.5 + |exact|/64 (plus float rounding in the interpolation).
func TestHistogramMatchesPercentile(t *testing.T) {
	check := func(seedLo uint32, scaleExp uint8, count uint16) bool {
		r := rng.New(uint64(seedLo) | 1)
		n := int(count%2000) + 1
		scale := math.Ldexp(1, int(scaleExp%40)) // spans ns..hours in float units
		xs := make([]float64, n)
		var h Histogram
		for i := range xs {
			v := r.Exp(scale)
			xs[i] = v
			h.Add(v)
		}
		for _, p := range []float64{0, 1, 25, 50, 75, 90, 95, 99, 100} {
			exact := Percentile(xs, p)
			est := h.Percentile(p)
			if math.Abs(est-exact) > 0.5+math.Abs(exact)*(1.0/64+1e-12) {
				t.Logf("n=%d scale=%v p%v: est %v vs exact %v", n, scale, p, est, exact)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestHistogramWideGapInterpolation(t *testing.T) {
	// Two samples orders of magnitude apart: rank interpolation must
	// mirror Percentile's convention, not snap to a bucket.
	var h Histogram
	h.Add(1)
	h.Add(1e9)
	exact := Percentile([]float64{1, 1e9}, 50)
	got := h.Percentile(50)
	if math.Abs(got-exact) > 0.05*exact {
		t.Errorf("p50 = %v, want ≈%v", got, exact)
	}
}
