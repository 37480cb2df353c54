// Package core implements the paper's primary contribution: deriving a
// dense, continuous web of trust from review-rating data (Step 3, eq. 5),
// together with the evaluation constructs the paper builds around it — the
// per-user generosity used to binarise the continuous matrix, the direct-
// connection baseline B, and the Pipeline that orchestrates Steps 1-3.
//
// The degree of trust user i holds for user j is the affinity-weighted
// average of j's per-category expertise:
//
//	T̂_ij = Σ_c A_ic·E_jc / Σ_c A_ic
//
// T̂ is dense (U x U) and is therefore never materialised: DerivedTrust
// computes rows on demand in O(U·C), which is what every consumer
// (binarisation, evaluation, top-k queries) needs anyway.
package core

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"weboftrust/internal/mat"
	"weboftrust/internal/par"
	"weboftrust/internal/ratings"
)

// ErrShape reports mismatched matrix dimensions between A and E.
var ErrShape = errors.New("core: affinity/expertise shape mismatch")

// DerivedTrust is the derived trust matrix T̂ in functional form: it holds
// the affinity matrix A and expertise matrix E and evaluates eq. 5 on
// demand. It is immutable and safe for concurrent use.
type DerivedTrust struct {
	affinity  *mat.Dense // U x C
	expertise *mat.Dense // U x C
	rowSum    []float64  // Σ_c A_ic per user

	// expertsByCategory[c] marks users with E_jc > 0; used to count row
	// support without scanning all U·C products.
	expertsByCategory []*mat.Bitset
	// expertLists[c] holds the same sets as ascending id slices, for the
	// sparse row evaluation path (RowSparse).
	expertLists [][]int32
	// expertScores[c] is the CSC-style score column packed parallel to
	// expertLists[c]: expertScores[c][i] == E[expertLists[c][i]][c]. The
	// sparse paths stream these two contiguous slices per category
	// instead of gathering E.At(j, c) with a C-element stride, and Value
	// binary-searches a list for single-cell queries.
	expertScores [][]float64
	// affinityNNZ[u] counts user u's non-zero affinities, so Value can
	// decide between the dense dot and the indexed path without
	// re-scanning A's row.
	affinityNNZ []int32
}

// NewDerivedTrust builds the derived trust matrix from the affinity matrix
// A and expertise matrix E, both U x C, fanning the per-user and
// per-category index construction out to one worker per available CPU.
func NewDerivedTrust(affinity, expertise *mat.Dense) (*DerivedTrust, error) {
	return NewDerivedTrustWorkers(affinity, expertise, 0)
}

// NewDerivedTrustWorkers is NewDerivedTrust with an explicit worker count
// (<= 0 means one per available CPU). Row sums shard by user and expert
// sets by category — every slot has exactly one writer — so the result is
// identical at any worker count.
func NewDerivedTrustWorkers(affinity, expertise *mat.Dense, workers int) (*DerivedTrust, error) {
	au, ac := affinity.Dims()
	eu, ec := expertise.Dims()
	if au != eu || ac != ec {
		return nil, fmt.Errorf("%w: A is %dx%d, E is %dx%d", ErrShape, au, ac, eu, ec)
	}
	dt := &DerivedTrust{
		affinity:    affinity,
		expertise:   expertise,
		rowSum:      make([]float64, au),
		affinityNNZ: make([]int32, au),
	}
	par.Do(workers, au, func(u int) {
		var sum float64
		var nnz int32
		for _, v := range affinity.Row(u) {
			sum += v
			if v != 0 {
				nnz++
			}
		}
		dt.rowSum[u] = sum
		dt.affinityNNZ[u] = nnz
	})
	dt.expertsByCategory = make([]*mat.Bitset, ac)
	dt.expertLists = make([][]int32, ac)
	dt.expertScores = make([][]float64, ac)
	par.Do(workers, ac, func(c int) {
		bs := mat.NewBitset(au)
		var list []int32
		var scores []float64
		for u := 0; u < au; u++ {
			if v := expertise.At(u, c); v > 0 {
				bs.Set(u)
				list = append(list, int32(u))
				scores = append(scores, v)
			}
		}
		dt.expertsByCategory[c] = bs
		dt.expertLists[c] = list
		dt.expertScores[c] = scores
	})
	return dt, nil
}

// NumUsers returns U.
func (dt *DerivedTrust) NumUsers() int { return dt.affinity.Rows() }

// NumCategories returns C.
func (dt *DerivedTrust) NumCategories() int { return dt.expertise.Cols() }

// Affinity returns the A matrix (shared; do not modify).
func (dt *DerivedTrust) Affinity() *mat.Dense { return dt.affinity }

// AffinityRow returns user u's affinity row (shared; do not modify).
func (dt *DerivedTrust) AffinityRow(u ratings.UserID) []float64 {
	return dt.affinity.Row(int(u))
}

// Expertise returns the E matrix (shared; do not modify).
func (dt *DerivedTrust) Expertise() *mat.Dense { return dt.expertise }

// Value returns T̂_ij, the degree of trust user i holds for user j
// (eq. 5). It is 0 when i has no category affinity or no overlap exists
// between i's interests and j's expertise. Self-trust T̂_ii is computed
// like any other cell; callers that need to exclude it do so themselves.
//
// When i's affinity is narrow relative to the category count, the cell is
// evaluated through the expert-score index (one binary search per
// interest) instead of the dense C-element dot; both paths add the same
// non-zero products in the same ascending-category order, so the result
// is identical either way.
func (dt *DerivedTrust) Value(i, j ratings.UserID) float64 {
	sum := dt.rowSum[i]
	if sum == 0 {
		return 0
	}
	// A binary search costs ~log2(U) branchy probes against one
	// contiguous multiply-add per category for the dense dot.
	if int(dt.affinityNNZ[i])*(bits.Len(uint(dt.NumUsers()))+1) < dt.NumCategories() {
		return dt.valueIndexed(i, j) / sum
	}
	return mat.Dot(dt.affinity.Row(int(i)), dt.expertise.Row(int(j))) / sum
}

// valueIndexed evaluates the eq. 5 numerator for cell (i, j) through the
// expert-score index: for each category i has affinity for, binary-search
// j in the (ascending) expert list and, when present, add the packed
// score. Products skipped relative to the dense dot are exactly the zero
// ones, and all summands here are non-negative, so the partial sums are
// bit-for-bit the same as mat.Dot's.
func (dt *DerivedTrust) valueIndexed(i, j ratings.UserID) float64 {
	var acc float64
	target := int32(j)
	for c, wc := range dt.affinity.Row(int(i)) {
		if wc == 0 {
			continue
		}
		list := dt.expertLists[c]
		if pos, ok := slices.BinarySearch(list, target); ok {
			acc += wc * dt.expertScores[c][pos]
		}
	}
	return acc
}

// Row fills dst (length U) with row i of T̂ and returns it. If dst is nil
// a new slice is allocated. It is the dense O(U·C) reference that tests
// hold RowSparse to.
func (dt *DerivedTrust) Row(i ratings.UserID, dst []float64) []float64 {
	numU := dt.NumUsers()
	if dst == nil {
		dst = make([]float64, numU)
	} else if len(dst) != numU {
		panic(fmt.Sprintf("core: Row dst length %d, want %d", len(dst), numU))
	}
	sum := dt.rowSum[i]
	if sum == 0 {
		for k := range dst {
			dst[k] = 0
		}
		return dst
	}
	w := dt.affinity.Row(int(i))
	inv := 1 / sum
	for j := 0; j < numU; j++ {
		dst[j] = mat.Dot(w, dt.expertise.Row(j)) * inv
	}
	return dst
}

// RowSparse fills dst (length U) with row i of T̂ like Row, but iterates
// only the experts of the categories user i has affinity for, instead of
// all U·C products. When interests are narrow and expertise is sparse this
// is much cheaper, and the result is bitwise identical to Row: each
// non-zero (j, c) product is added exactly once, in ascending category
// order, matching Row's inner loop order for the touched cells.
func (dt *DerivedTrust) RowSparse(i ratings.UserID, dst []float64) []float64 {
	numU := dt.NumUsers()
	if dst == nil {
		dst = make([]float64, numU)
	} else if len(dst) != numU {
		panic(fmt.Sprintf("core: RowSparse dst length %d, want %d", len(dst), numU))
	}
	for k := range dst {
		dst[k] = 0
	}
	sum := dt.rowSum[i]
	if sum == 0 {
		return dst
	}
	w := dt.affinity.Row(int(i))
	for c, wc := range w {
		if wc == 0 {
			continue
		}
		// Stream the packed (id, score) columns: two contiguous slices
		// per category instead of a C-stride gather through E.
		scores := dt.expertScores[c]
		for idx, j := range dt.expertLists[c] {
			dst[j] += wc * scores[idx]
		}
	}
	inv := 1 / sum
	for k := range dst {
		dst[k] *= inv
	}
	return dst
}

// RowSupport returns the number of users j != i with T̂_ij > 0: the size
// of user i's "derived connections" set that binarisation draws from.
func (dt *DerivedTrust) RowSupport(i ratings.UserID) int {
	if dt.rowSum[i] == 0 {
		return 0
	}
	union := mat.NewBitset(dt.NumUsers())
	w := dt.affinity.Row(int(i))
	for c, bs := range dt.expertsByCategory {
		if w[c] > 0 {
			bs.OrInto(union)
		}
	}
	n := union.Count()
	if union.Test(int(i)) {
		n-- // exclude self
	}
	return n
}

// TotalSupport returns Σ_i RowSupport(i): the number of non-zero
// off-diagonal cells of T̂ (the derived matrix's size in Fig. 3).
func (dt *DerivedTrust) TotalSupport() int {
	total := 0
	for i := 0; i < dt.NumUsers(); i++ {
		total += dt.RowSupport(ratings.UserID(i))
	}
	return total
}

// Ranked pairs a user with a trust score, for top-k query results.
type Ranked struct {
	User  ratings.UserID
	Score float64
}

// TopTrusted returns the k users with the highest T̂_ij for source i,
// excluding i itself and zero scores, in descending score order (ties by
// ascending user id). The row is evaluated through RowSparse, so a
// source pays only for the experts it can reach, and selection runs
// through the bounded heap (O(U log k), O(k) working memory) rather than
// a full-row sort-select.
func (dt *DerivedTrust) TopTrusted(i ratings.UserID, k int) []Ranked {
	row := dt.RowSparse(i, nil)
	row[i] = 0 // exclude self
	return RankRow(row, k)
}

// RankRow selects the top-k positive scores from a precomputed trust row
// (self already excluded), in descending score order with ties by
// ascending user id — the selection half of TopTrusted, split out so
// serving layers that cache ranked results can rank without recomputing
// rows. The row is only read.
func RankRow(row []float64, k int) []Ranked {
	return RankRowScratch(row, k, nil)
}

// RankRowScratch is RankRow with a caller-owned index scratch slice for
// the heap selection (see mat.TopKHeapInto): a scratch with capacity k
// makes the selection allocation-free, leaving the returned []Ranked —
// which callers typically retain — as the only allocation. The scratch's
// contents are overwritten; pass nil to allocate per call.
func RankRowScratch(row []float64, k int, scratch []int) []Ranked {
	idx := mat.TopKHeapInto(row, k, scratch)
	out := make([]Ranked, 0, len(idx))
	for _, j := range idx {
		if row[j] <= 0 {
			break // the selection is sorted descending; the rest are zeros too
		}
		out = append(out, Ranked{User: ratings.UserID(j), Score: row[j]})
	}
	return out
}

// RankPosition returns u's 1-based place in RankRow's order: 1 + the
// number of entries scored higher than u, counting equal scores at
// smaller ids as higher. A u with a positive score sits at that place on
// RankRow(vec, len(vec)); a zero score still gets a place, behind every
// positive one.
func RankPosition(vec []float64, u ratings.UserID) int {
	s := vec[u]
	pos := 1
	for j, v := range vec {
		if v > s || (v == s && ratings.UserID(j) < u) {
			pos++
		}
	}
	return pos
}
