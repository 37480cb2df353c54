package core

import (
	"fmt"
	"math"

	"weboftrust/internal/mat"
	"weboftrust/internal/par"
	"weboftrust/internal/ratings"
)

// Generosity computes the paper's per-user conversion ratio
// k_i = |R_i ∩ T_i| / |R_i|: the fraction of user i's direct connections
// that carry an explicit trust edge. Users with no direct connections get
// k_i = 0. This captures "each user's generousness of trust decision
// compared to total number of direct connection" (Section IV-C).
func Generosity(d *ratings.Dataset) []float64 {
	k := make([]float64, d.NumUsers())
	for u := ratings.UserID(0); int(u) < d.NumUsers(); u++ {
		k[int(u)] = generosityOf(d, u)
	}
	return k
}

// generosityOf computes one user's conversion ratio k_i. It reads only
// user i's own connection and trust rows, which is what lets the web
// artifact recompute generosity for exactly the users whose rows grew.
func generosityOf(d *ratings.Dataset, u ratings.UserID) float64 {
	total, trusted := 0, 0
	d.ConnectionsFrom(u, func(c ratings.Connection) {
		total++
		if d.HasTrustEdge(u, c.To) {
			trusted++
		}
	})
	if total == 0 {
		return 0
	}
	return float64(trusted) / float64(total)
}

// BinarizePolicy selects how the continuous matrices are converted to
// binary trust predictions.
type BinarizePolicy int

const (
	// PerUserTopK selects, for each user i, the top ⌈k_i·n_i⌉ of their
	// candidate connections by score, where k_i is the user's generosity
	// and n_i their candidate count. This is the paper's protocol.
	PerUserTopK BinarizePolicy = iota
	// GlobalThreshold predicts trust wherever the score is >= a fixed
	// threshold, ignoring per-user generosity (the A-4 ablation).
	GlobalThreshold
)

// String returns the policy's name.
func (p BinarizePolicy) String() string {
	switch p {
	case PerUserTopK:
		return "per-user-topk"
	case GlobalThreshold:
		return "global-threshold"
	default:
		return fmt.Sprintf("BinarizePolicy(%d)", int(p))
	}
}

// topCount converts a generosity fraction and candidate count into a
// selection size: ⌈k·n⌉ clamped to [0, n]. A tiny epsilon guards against
// k·n landing just above an integer through floating-point noise.
func topCount(k float64, n int) int {
	if n <= 0 || k <= 0 {
		return 0
	}
	c := int(math.Ceil(k*float64(n) - 1e-9))
	if c < 0 {
		c = 0
	}
	if c > n {
		c = n
	}
	return c
}

// Binarize converts the continuous derived matrix into the binary
// prediction matrix T̂′ under the given policy — the single entry point
// behind BinarizeDerived, the web-of-trust artifact and the facade's
// binarize option. For PerUserTopK, generosity must hold one k_i per
// user (a k_i of 0 falls back to policy.ColdGenerosity when that is
// positive); for GlobalThreshold it is ignored and may be nil. Rows are
// processed in parallel across workers (<= 0 means one per available
// CPU) and are identical at any worker count: each row is a pure
// function of its own inputs.
func Binarize(dt *DerivedTrust, policy WebPolicy, generosity []float64, workers int) (*mat.CSR, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	numU := dt.NumUsers()
	if policy.Policy == PerUserTopK && len(generosity) != numU {
		return nil, fmt.Errorf("core: generosity length %d, want %d", len(generosity), numU)
	}
	rows := make([][]int32, numU)
	n := par.Normalize(workers)
	bufs := make([]*selectScratch, n)
	par.DoWorker(n, numU, func(w, i int) {
		if bufs[w] == nil {
			bufs[w] = newSelectScratch(numU)
		}
		k := 0.0
		if policy.Policy == PerUserTopK {
			k = policy.effectiveGenerosity(generosity[i])
		}
		rows[i] = policyRowInto(dt, ratings.UserID(i), policy, k, bufs[w], false).To
	})
	return mat.NewCSRFromRows(numU, numU, rows, nil)
}

// selectScratch is the per-worker working memory of a policy row
// selection: the row evaluation buffer and the candidate-value buffer the
// threshold selection partitions, reused across every row a worker
// processes.
type selectScratch struct {
	row  []float64
	vals []float64
}

func newSelectScratch(numU int) *selectScratch {
	return &selectScratch{row: make([]float64, numU), vals: make([]float64, 0, numU)}
}

// BinarizeDerived converts the continuous derived matrix into the binary
// prediction matrix T̂′ using PerUserTopK: for each user i the candidate
// set is every j != i with T̂_ij > 0, and the top ⌈k_i·|candidates|⌉ by
// score become predicted-trust edges. Rows are processed in parallel.
func BinarizeDerived(dt *DerivedTrust, generosity []float64) (*mat.CSR, error) {
	return Binarize(dt, WebPolicy{Policy: PerUserTopK}, generosity, 0)
}

// policyRowInto evaluates user i's derived-trust row into the scratch's
// U-length row buffer and applies the binarize policy, returning the
// selected out-neighbours in ascending id order. When withWeights is set
// the parallel T̂ values are captured too (the derived web is a weighted
// graph); binarisation to a boolean CSR skips them. Every consumer of a
// policy — the binarize entry points above and the web-of-trust artifact —
// funnels through here, so the selection protocol cannot drift between
// the offline evaluation path and the served graph. k is the user's
// effective generosity (PerUserTopK only; cold fallback already applied).
//
// PerUserTopK selects through mat.SelectTop over a compacted copy of the
// positive candidate values, expected O(candidates), then one ascending
// scan of the row emits every score above the threshold plus the
// lowest-index ties: the set mat.TopKHeapInto would keep, already in
// ascending id order, with no allocation beyond the result itself.
func policyRowInto(dt *DerivedTrust, i ratings.UserID, p WebPolicy, k float64, sc *selectScratch, withWeights bool) WebRow {
	row := sc.row
	var ids []int32
	var ws []float64
	switch p.Policy {
	case PerUserTopK:
		if k <= 0 {
			return WebRow{}
		}
		dt.RowSparse(i, row)
		row[i] = 0 // self is never a candidate
		vals := sc.vals[:0]
		for _, v := range row {
			if v > 0 {
				vals = append(vals, v)
			}
		}
		sc.vals = vals[:0] // keep a grown buffer for later rows
		take := topCount(k, len(vals))
		if take == 0 {
			return WebRow{}
		}
		thresh, ties := mat.SelectTop(vals, take)
		ids = make([]int32, 0, take)
		if withWeights {
			ws = make([]float64, 0, take)
		}
		for j, v := range row {
			if v > thresh || (v == thresh && ties > 0) {
				if v == thresh {
					ties--
				}
				ids = append(ids, int32(j))
				if withWeights {
					ws = append(ws, v)
				}
			}
		}
	case GlobalThreshold:
		dt.RowSparse(i, row)
		for j, v := range row {
			if j != int(i) && v > 0 && v >= p.Tau {
				ids = append(ids, int32(j))
				if withWeights {
					ws = append(ws, v)
				}
			}
		}
	}
	if len(ids) == 0 {
		return WebRow{}
	}
	return WebRow{To: ids, W: ws}
}

// BaselineMatrix builds the paper's baseline B: B_ij is the average rating
// user i gave to user j's reviews, stored sparsely on the direct-connection
// support R.
func BaselineMatrix(d *ratings.Dataset) *mat.CSR {
	numU := d.NumUsers()
	rows := make([][]int32, numU)
	vals := make([][]float64, numU)
	for u := ratings.UserID(0); int(u) < d.NumUsers(); u++ {
		d.ConnectionsFrom(u, func(c ratings.Connection) {
			rows[u] = append(rows[u], int32(c.To))
			vals[u] = append(vals[u], c.AvgRating())
		})
	}
	m, err := mat.NewCSRFromRows(numU, numU, rows, vals)
	if err != nil {
		// ConnectionsFrom yields unique, in-range targets, so this is
		// unreachable; panic loudly if the invariant ever breaks.
		panic(fmt.Sprintf("core: BaselineMatrix: %v", err))
	}
	return m
}

// BinarizeSparse converts a sparse continuous score matrix (such as the
// baseline B) into binary predictions with PerUserTopK: for each row the
// candidates are the stored entries and the top ⌈k_i·nnz_i⌉ by value are
// kept.
func BinarizeSparse(scores *mat.CSR, generosity []float64) (*mat.CSR, error) {
	numU, cols := scores.Dims()
	if len(generosity) != numU {
		return nil, fmt.Errorf("core: generosity length %d, want %d", len(generosity), numU)
	}
	rows := make([][]int32, numU)
	var sel []float64
	for i := 0; i < numU; i++ {
		colIdx, vals := scores.Row(i)
		take := topCount(generosity[i], len(vals))
		if take == 0 {
			continue
		}
		// SelectTop partitions its argument, and Row shares the matrix's
		// storage.
		sel = append(sel[:0], vals...)
		thresh, ties := mat.SelectTop(sel, take)
		out := make([]int32, 0, take)
		for k, v := range vals {
			if v > thresh || (v == thresh && ties > 0) {
				if v == thresh {
					ties--
				}
				out = append(out, colIdx[k])
			}
		}
		rows[i] = out
	}
	return mat.NewCSRFromRows(numU, cols, rows, nil)
}
