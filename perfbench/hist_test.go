package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// sortedQuantile is the reference: the sample at rank q·(n−1) of the
// sorted slice, in milliseconds.
func sortedQuantile(sorted []time.Duration, q float64) float64 {
	i := int(math.Round(q * float64(len(sorted)-1)))
	return float64(sorted[i]) / float64(time.Millisecond)
}

func TestHistogramQuantilesMatchSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, tc := range []struct {
		name string
		draw func() time.Duration
	}{
		{"cached-reads", func() time.Duration { return time.Duration(150e3 + rng.ExpFloat64()*60e3) }},
		{"bimodal", func() time.Duration {
			if rng.IntN(3) == 0 {
				return time.Duration(400e6 + rng.NormFloat64()*30e6)
			}
			return time.Duration(18e6 + rng.NormFloat64()*1e6)
		}},
		{"lognormal", func() time.Duration { return time.Duration(math.Exp(12 + 2*rng.NormFloat64())) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var h, a, b Histogram
			samples := make([]time.Duration, 20000)
			for i := range samples {
				samples[i] = tc.draw()
				h.Record(samples[i])
				if i%2 == 0 {
					a.Record(samples[i])
				} else {
					b.Record(samples[i])
				}
			}
			a.Merge(&b)
			slices.Sort(samples)
			for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
				want := sortedQuantile(samples, q)
				for _, hh := range []*Histogram{&h, &a} {
					got := hh.Quantile(q)
					// One bucket of error: a relative width of histGrowth−1.
					if math.Abs(got-want) > want*(histGrowth-1)*1.01+1e-6 {
						t.Errorf("q=%v: histogram %v ms, sorted slice %v ms", q, got, want)
					}
				}
			}
			if h.Count() != len(samples) || a.Count() != len(samples) {
				t.Fatalf("counts %d/%d, want %d", h.Count(), a.Count(), len(samples))
			}
		})
	}
}

func TestHistogramTail(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	pct, ms, ok := h.Tail()
	if !ok || pct != 99 {
		t.Fatalf("tail percentile %v ok=%v, want 99 (10 samples beyond it)", pct, ok)
	}
	if math.Abs(ms-990) > 990*(histGrowth-1)*1.01 {
		t.Fatalf("p99 = %v ms, want ≈990", ms)
	}
	var few Histogram
	few.Record(time.Millisecond)
	if _, _, ok := few.Tail(); ok {
		t.Fatal("one sample cannot support a tail percentile")
	}
	if few.Quantile(0.5) != 1 {
		t.Fatalf("single-sample median = %v ms, want 1", few.Quantile(0.5))
	}
}
