package propagation

import (
	"fmt"
	"math"

	"weboftrust/internal/graph"
)

// EigenTrust computes the global trust ranking of Kamvar, Schlosser and
// Garcia-Molina (the paper's reference [8]): the principal eigenvector of
// the row-normalised local trust matrix, with uniform-prior damping for
// convergence on graphs with dangling nodes:
//
//	t_{k+1} = (1 − alpha) · Cᵀ t_k + alpha · p
//
// where C is the row-normalised trust matrix and p the uniform prior.
// The output is a probability vector: global trust scores summing to 1.
type EigenTrust struct {
	// Alpha is the damping weight on the uniform prior, in (0, 1).
	Alpha float64
	// MaxIter caps power iterations; Tol is the L1 convergence threshold.
	MaxIter int
	Tol     float64
}

// DefaultEigenTrust returns the conventional parameterisation.
func DefaultEigenTrust() EigenTrust {
	return EigenTrust{Alpha: 0.15, MaxIter: 100, Tol: 1e-10}
}

// Ranks computes the global trust vector by power iteration from the
// uniform prior, and reports the number of iterations executed. It
// returns an error for invalid parameters; an empty graph yields an
// empty vector.
func (et EigenTrust) Ranks(g *graph.Graph) ([]float64, int, error) {
	if et.Alpha <= 0 || et.Alpha >= 1 {
		return nil, 0, fmt.Errorf("%w: alpha %v outside (0,1)", ErrBadConfig, et.Alpha)
	}
	if et.MaxIter < 1 || !(et.Tol > 0) {
		return nil, 0, fmt.Errorf("%w: MaxIter %d / Tol %v", ErrBadConfig, et.MaxIter, et.Tol)
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, 0, nil
	}
	// Precompute out-weight sums for row normalisation; dangling nodes
	// (no outgoing trust) redistribute to the uniform prior.
	outSum := make([]float64, n)
	for v := 0; v < n; v++ {
		outSum[v] = g.OutWeightSum(v)
	}
	t := make([]float64, n)
	next := make([]float64, n)
	uniform := 1 / float64(n)
	for i := range t {
		t[i] = uniform
	}
	iters := 0
	for iter := 0; iter < et.MaxIter; iter++ {
		iters = iter + 1
		var dangling float64
		for i := range next {
			next[i] = 0
		}
		for v := 0; v < n; v++ {
			if outSum[v] <= 0 {
				dangling += t[v]
				continue
			}
			share := t[v] / outSum[v]
			to, w := g.Out(v)
			for i, u := range to {
				next[u] += (1 - et.Alpha) * share * w[i]
			}
		}
		base := et.Alpha*uniform + (1-et.Alpha)*dangling*uniform
		var delta float64
		for i := range next {
			next[i] += base
			delta += math.Abs(next[i] - t[i])
		}
		t, next = next, t
		if delta < et.Tol {
			break
		}
	}
	return t, iters, nil
}
