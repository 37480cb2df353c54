package main

import (
	"math"
	"time"
)

// Histogram records durations in preallocated logarithmic buckets, so a
// run of any length costs the same memory and heap_live_mb measures trustd,
// not the benchmark's sample storage. Bucket i covers
// [histMin·histGrowth^i, histMin·histGrowth^(i+1)); a quantile is read by
// interpolating inside its bucket, so it is exact to within one bucket
// (0.5%). Not safe for concurrent use: each client owns one and Merge
// combines them afterwards.
type Histogram struct {
	counts [histBuckets]uint32
	total  int
	min    time.Duration
	max    time.Duration
}

const (
	histMin     = float64(time.Microsecond)
	histGrowth  = 1.005
	histBuckets = 3700 // histMin·1.005^3700 ≈ 100 s
)

var histLogGrowth = math.Log(histGrowth)

func bucketOf(d time.Duration) int {
	if float64(d) < histMin {
		return 0
	}
	i := int(math.Log(float64(d)/histMin) / histLogGrowth)
	return min(i, histBuckets-1)
}

func bucketLow(i int) float64 { return histMin * math.Exp(float64(i)*histLogGrowth) }

// Record adds one sample. Negative durations count as zero.
func (h *Histogram) Record(d time.Duration) {
	d = max(d, 0)
	h.counts[bucketOf(d)]++
	if h.total == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.total++
}

// Merge adds o's samples to h.
func (h *Histogram) Merge(o *Histogram) {
	if o.total == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	h.max = max(h.max, o.max)
	h.total += o.total
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return h.total }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) in milliseconds, using the
// same rank convention as a sorted slice indexed at q·(n−1), interpolated
// linearly inside the bucket that holds that rank and clamped to the
// observed extremes, which q=0 and q=1 return exactly. It returns 0 for an
// empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	switch {
	case h.total == 0:
		return 0
	case q <= 0:
		return float64(h.min) / float64(time.Millisecond)
	case q >= 1:
		return float64(h.max) / float64(time.Millisecond)
	}
	rank := q * float64(h.total-1)
	seen := 0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(seen+int(c)) > rank {
			lo, hi := bucketLow(i), bucketLow(i+1)
			v := lo + (hi-lo)*(rank-float64(seen)+0.5)/float64(c)
			v = math.Min(math.Max(v, float64(h.min)), float64(h.max))
			return v / float64(time.Millisecond)
		}
		seen += int(c)
	}
	return float64(h.max) / float64(time.Millisecond)
}

// Tail returns the highest of the percentiles 90, 99, 99.9 and 99.99 that
// has at least ten samples beyond it, with its value in milliseconds; ok
// is false when even p90 has fewer than ten samples beyond it.
func (h *Histogram) Tail() (pct, ms float64, ok bool) {
	for _, p := range []float64{99.99, 99.9, 99, 90} {
		if float64(h.total)*(1-p/100) >= 10 {
			return p, h.Quantile(p / 100), true
		}
	}
	return 0, 0, false
}
