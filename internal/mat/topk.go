package mat

import "math"

// The two selections below share one ranking order: value descending,
// ties toward the smaller index. TopKHeapInto returns the top k in that
// order; SelectTop returns the same top k as a set.

// TopKHeapInto returns the indices of the k largest values in descending
// value order, ties toward the smaller index. It keeps a bounded min-heap
// of k indices and heap-sorts it at the end: O(n log k) worst case
// (O(n + k log k) expected on unordered data, since most elements fail
// the cheap beats-the-root test) and O(k) working memory, 80 bytes at
// k=10 where a sort-select over an n-length index slice would take 8 MB
// at a million users. If k >= len(values) every index is returned in
// that order; if k <= 0 the result is nil.
//
// The heap is built in dst's storage when it has capacity for
// min(k, len(values)) indices, so steady-state callers (the server's
// query path) select with zero allocations. The returned slice aliases
// dst whenever dst was large enough; dst's previous contents are
// ignored.
func TopKHeapInto(values []float64, k int, dst []int) []int {
	n := len(values)
	if k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	if k == 0 {
		return nil
	}
	h := dst[:0]
	if cap(h) < k {
		h = make([]int, 0, k)
	}
	// worse orders the heap: the root is the weakest of the kept k —
	// smallest value, ties toward the larger index (the exact inverse of
	// the ranking order).
	worse := func(a, b int) bool {
		va, vb := values[a], values[b]
		if va != vb {
			return va < vb
		}
		return a > b
	}
	siftDown := func(h []int, i int) {
		for {
			l := 2*i + 1
			if l >= len(h) {
				return
			}
			m := l
			if r := l + 1; r < len(h) && worse(h[r], h[l]) {
				m = r
			}
			if !worse(h[m], h[i]) {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := 0; i < n; i++ {
		if len(h) < k {
			h = append(h, i)
			// Sift the new leaf up.
			for c := len(h) - 1; c > 0; {
				p := (c - 1) / 2
				if !worse(h[c], h[p]) {
					break
				}
				h[c], h[p] = h[p], h[c]
				c = p
			}
			continue
		}
		// Ties lose to the incumbent: indices stream in ascending order,
		// so equal values keep the earlier index.
		if va, vr := values[i], values[h[0]]; va > vr {
			h[0] = i
			siftDown(h, 0)
		}
	}
	// Heap-sort in place: repeatedly move the current weakest to the back,
	// leaving the slice in the ranking order.
	for m := len(h) - 1; m > 0; m-- {
		h[0], h[m] = h[m], h[0]
		siftDown(h[:m], 0)
	}
	return h
}

// SelectTop selects the take largest of vals as a set and returns
// thresh, the take-th largest value, and ties, how many entries equal to
// thresh the set holds. A caller walking its entries in ascending index
// order keeps every v > thresh plus the first ties entries equal to
// thresh: exactly the set TopKHeapInto keeps. take is clamped to
// len(vals); when it is <= 0 nothing is kept (thresh is +Inf, ties 0).
//
// SelectTop partitions vals in place by an iterative quickselect with a
// median-of-three pivot, expected O(len(vals)), so pass a copy of
// values the caller still reads. Values must not be NaN.
func SelectTop(vals []float64, take int) (thresh float64, ties int) {
	if take > len(vals) {
		take = len(vals)
	}
	if take <= 0 {
		return math.Inf(1), 0
	}
	lo, hi := 0, len(vals)
	for take > lo && take < hi {
		if hi-lo == 2 {
			if vals[lo+1] > vals[lo] {
				vals[lo], vals[lo+1] = vals[lo+1], vals[lo]
			}
			break
		}
		// Median-of-three, arranged so vals[lo] >= pivot >= vals[hi-1]:
		// both scans stop inside the range and the split is interior.
		mid := lo + (hi-lo)/2
		last := hi - 1
		if vals[mid] > vals[lo] {
			vals[mid], vals[lo] = vals[lo], vals[mid]
		}
		if vals[last] > vals[lo] {
			vals[last], vals[lo] = vals[lo], vals[last]
		}
		if vals[last] > vals[mid] {
			vals[last], vals[mid] = vals[mid], vals[last]
		}
		pivot := vals[mid]
		i, j := lo, hi-1
		for {
			for {
				i++
				if !(vals[i] > pivot) {
					break
				}
			}
			for {
				j--
				if !(pivot > vals[j]) {
					break
				}
			}
			if i >= j {
				break
			}
			vals[i], vals[j] = vals[j], vals[i]
		}
		if p := j + 1; p < take {
			lo = p
		} else {
			hi = p
		}
	}
	// vals[:take] now holds the selected values in unspecified order:
	// every value above the weakest of them, and some of its ties.
	thresh, ties = vals[0], 1
	for _, v := range vals[1:take] {
		switch {
		case v < thresh:
			thresh, ties = v, 1
		case v == thresh:
			ties++
		}
	}
	return thresh, ties
}
