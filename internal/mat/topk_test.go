package mat

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// refTopK is the O(n log n) reference implementation.
func refTopK(values []float64, k int) []int {
	if k <= 0 {
		return nil
	}
	if k > len(values) {
		k = len(values)
	}
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		va, vb := values[idx[a]], values[idx[b]]
		if va != vb {
			return va > vb
		}
		return idx[a] < idx[b]
	})
	return idx[:k]
}

// selectSet runs SelectTop on a copy of values and walks values in
// ascending index order the way its callers do, returning the kept
// indices (ascending).
func selectSet(values []float64, take int) []int {
	thresh, ties := SelectTop(slices.Clone(values), take)
	var kept []int
	for i, v := range values {
		if v > thresh || (v == thresh && ties > 0) {
			if v == thresh {
				ties--
			}
			kept = append(kept, i)
		}
	}
	return kept
}

// sortedCopy returns idx sorted ascending, for comparing a ranked
// selection with a set.
func sortedCopy(idx []int) []int {
	out := slices.Clone(idx)
	slices.Sort(out)
	return out
}

func TestTopKBasic(t *testing.T) {
	values := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if got, want := selectSet(values, 3), []int{4, 5, 7}; !slices.Equal(got, want) { // 5, 9, 6
		t.Errorf("SelectTop set = %v, want %v", got, want)
	}
	thresh, ties := SelectTop(slices.Clone(values), 3)
	if thresh != 5 || ties != 1 {
		t.Errorf("SelectTop = (%v, %d), want (5, 1)", thresh, ties)
	}
}

func TestTopKTiesDeterministic(t *testing.T) {
	values := []float64{2, 2, 2, 2, 2}
	if got, want := selectSet(values, 3), []int{0, 1, 2}; !slices.Equal(got, want) {
		t.Errorf("SelectTop set = %v, want %v (smaller index wins ties)", got, want)
	}
	thresh, ties := SelectTop(slices.Clone(values), 3)
	if thresh != 2 || ties != 3 {
		t.Errorf("SelectTop = (%v, %d), want (2, 3)", thresh, ties)
	}
}

func TestTopKEdgeCases(t *testing.T) {
	for _, c := range []struct {
		values []float64
		take   int
	}{{[]float64{1, 2}, 0}, {[]float64{1, 2}, -3}, {nil, 5}, {nil, 0}} {
		thresh, ties := SelectTop(slices.Clone(c.values), c.take)
		if !math.IsInf(thresh, 1) || ties != 0 {
			t.Errorf("SelectTop(%v, %d) = (%v, %d), want (+Inf, 0)", c.values, c.take, thresh, ties)
		}
	}
	if got := selectSet([]float64{1, 3, 2}, 10); !slices.Equal(got, []int{0, 1, 2}) {
		t.Errorf("take>n: got %v, want [0 1 2]", got)
	}
	if got := selectSet([]float64{2, 1, 1}, 3); !slices.Equal(got, []int{0, 1, 2}) {
		t.Errorf("take=n with a tied minimum: got %v, want [0 1 2]", got)
	}
	if thresh, ties := SelectTop([]float64{7}, 1); thresh != 7 || ties != 1 {
		t.Errorf("single element: got (%v, %d), want (7, 1)", thresh, ties)
	}
}

func TestTopKTwoElements(t *testing.T) {
	// Regression guard for the 2-element partition edge case.
	for _, c := range []struct {
		values []float64
		want   []int
	}{
		{[]float64{1, 2}, []int{1}},
		{[]float64{2, 1}, []int{0}},
		{[]float64{2, 2}, []int{0}},
	} {
		if got := selectSet(c.values, 1); !slices.Equal(got, c.want) {
			t.Errorf("SelectTop(%v, 1) set = %v, want %v", c.values, got, c.want)
		}
	}
}

// TestTopKSetMatchesTopK checks SelectTop's set against TopKHeapInto's
// ranked top k: the two selections keep the same indices.
func TestTopKSetMatchesTopK(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	values := make([]float64, 100)
	for i := range values {
		values[i] = rng.Float64()
	}
	for _, k := range []int{0, 1, 5, 50, 99, 100, 150} {
		set := selectSet(values, k)
		top := sortedCopy(TopKHeapInto(values, k, nil))
		if !slices.Equal(set, top) {
			t.Errorf("k=%d: SelectTop kept %v, TopKHeapInto %v", k, set, top)
		}
	}
}

// TestKthLargest checks SelectTop's threshold, the take-th largest value
// (1-based: take=1 is the maximum), and its tie count.
func TestKthLargest(t *testing.T) {
	values := []float64{3, 1, 4, 1, 5}
	for _, c := range []struct {
		take, ties int
		thresh     float64
	}{{1, 1, 5}, {2, 1, 4}, {3, 1, 3}, {4, 1, 1}, {5, 2, 1}} {
		thresh, ties := SelectTop(slices.Clone(values), c.take)
		if thresh != c.thresh || ties != c.ties {
			t.Errorf("SelectTop(take=%d) = (%v, %d), want (%v, %d)", c.take, thresh, ties, c.thresh, c.ties)
		}
	}
}

// Property: SelectTop's set matches the sort-based reference on random
// inputs with many duplicate values (stress for tie handling and the
// partition).
func TestTopKQuick(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		n := 1 + rng.IntN(200)
		values := make([]float64, n)
		for i := range values {
			values[i] = float64(rng.IntN(8)) // heavy ties
		}
		k := int(kRaw) % (n + 2)
		return slices.Equal(selectSet(values, k), sortedCopy(refTopK(values, k)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: SelectTop keeps exactly k entries, and every kept value is
// >= every value left out.
func TestTopKSetBoundaryQuick(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 123))
		n := 1 + rng.IntN(100)
		values := make([]float64, n)
		for i := range values {
			values[i] = rng.Float64()
		}
		k := int(kRaw) % n
		kept := selectSet(values, k)
		in := make([]bool, n)
		for _, i := range kept {
			in[i] = true
		}
		minIn, maxOut := 2.0, -1.0
		for i, v := range values {
			if in[i] && v < minIn {
				minIn = v
			}
			if !in[i] && v > maxOut {
				maxOut = v
			}
		}
		return len(kept) == k && (k == 0 || minIn >= maxOut)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTopKHeapBasic(t *testing.T) {
	values := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if got, want := TopKHeapInto(values, 3, nil), []int{5, 7, 4}; !slices.Equal(got, want) { // 9, 6, 5
		t.Errorf("TopKHeapInto = %v, want %v", got, want)
	}
}

func TestTopKHeapEdgeCases(t *testing.T) {
	if got := TopKHeapInto([]float64{1, 2}, 0, nil); got != nil {
		t.Errorf("k=0: got %v, want nil", got)
	}
	if got := TopKHeapInto([]float64{1, 2}, -3, nil); got != nil {
		t.Errorf("k<0: got %v, want nil", got)
	}
	if got := TopKHeapInto(nil, 5, nil); got != nil {
		t.Errorf("empty values: got %v, want nil", got)
	}
	if got := TopKHeapInto([]float64{1, 3, 2}, 10, nil); !slices.Equal(got, []int{1, 2, 0}) {
		t.Errorf("k>n: got %v, want [1 2 0]", got)
	}
	if got := TopKHeapInto([]float64{7}, 1, nil); !slices.Equal(got, []int{0}) {
		t.Errorf("single element: got %v, want [0]", got)
	}
	if got := TopKHeapInto([]float64{2, 2, 2, 2, 2}, 3, nil); !slices.Equal(got, []int{0, 1, 2}) {
		t.Errorf("ties: got %v, want [0 1 2] (smaller index wins)", got)
	}
}

// TestTopKHeapIntoReusesScratch asserts the scratch contract: a dst with
// enough capacity is reused (the steady-state query path allocates
// nothing), and a too-small dst is replaced, not overrun.
func TestTopKHeapIntoReusesScratch(t *testing.T) {
	values := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	scratch := make([]int, 0, 8)
	got := TopKHeapInto(values, 3, scratch)
	if &got[0] != &scratch[:1][0] {
		t.Error("dst with capacity was not reused")
	}
	small := make([]int, 0, 1)
	got = TopKHeapInto(values, 3, small)
	if len(got) != 3 {
		t.Fatalf("small dst: len = %d, want 3", len(got))
	}
	allocs := testing.AllocsPerRun(100, func() {
		scratch = TopKHeapInto(values, 3, scratch)
	})
	if allocs != 0 {
		t.Errorf("TopKHeapInto with scratch allocated %.1f times per run", allocs)
	}
}

// Property: TopKHeapInto returns exactly the reference order — descending
// score, ties by ascending id — on random inputs with heavy duplication,
// across the full k range including k=0, k=n and k>n.
func TestTopKHeapMatchesTopKQuick(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		n := 1 + rng.IntN(200)
		values := make([]float64, n)
		for i := range values {
			values[i] = float64(rng.IntN(8)) // heavy ties
		}
		k := int(kRaw) % (n + 2)
		return slices.Equal(TopKHeapInto(values, k, make([]int, 0, 4)), refTopK(values, k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
