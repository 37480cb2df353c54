package propagation

import (
	"fmt"
	"math"

	"weboftrust/internal/graph"
)

// Appleseed computes personalised trust ranks by spreading activation
// (Ziegler & Lausen, the paper's reference [9]): energy is injected at the
// source and flows along trust edges; each visited node keeps a (1−d)
// share of its incoming energy as trust and forwards the d share along its
// outgoing edges proportionally to their weights. A virtual backward edge
// from every reached node to the source (weight 1) implements Appleseed's
// normalisation trick, returning energy to the source's neighbourhood and
// guaranteeing convergence.
type Appleseed struct {
	// Injection is the energy injected at the source (Ziegler uses 200).
	Injection float64
	// Spreading is d, the fraction of energy forwarded, in (0, 1).
	Spreading float64
	// Tol stops iterating when no node's pending energy exceeds it.
	Tol float64
	// MaxIter caps iterations.
	MaxIter int
}

// DefaultAppleseed returns Ziegler's conventional parameterisation.
func DefaultAppleseed() Appleseed {
	return Appleseed{Injection: 200, Spreading: 0.85, Tol: 0.01, MaxIter: 200}
}

// Rank computes trust energy for every node from the source's viewpoint.
// The source's own entry is 0 (it does not rank itself). It returns an
// error for invalid parameters or an out-of-range source.
func (as Appleseed) Rank(g *graph.Graph, source int) ([]float64, error) {
	if as.Injection <= 0 {
		return nil, fmt.Errorf("%w: injection %v", ErrBadConfig, as.Injection)
	}
	if as.Spreading <= 0 || as.Spreading >= 1 {
		return nil, fmt.Errorf("%w: spreading %v outside (0,1)", ErrBadConfig, as.Spreading)
	}
	if as.MaxIter < 1 || !(as.Tol > 0) {
		return nil, fmt.Errorf("%w: MaxIter %d / Tol %v", ErrBadConfig, as.MaxIter, as.Tol)
	}
	n := g.NumNodes()
	if source < 0 || source >= n {
		return nil, fmt.Errorf("%w: source %d out of range %d", ErrBadConfig, source, n)
	}
	trust := make([]float64, n)
	// One allocation holds the per-call scratch. outSum[v] is v's
	// self-loop-free out-weight, summed in edge order the first time v
	// forwards energy and reused by every later iteration, so a source
	// with a small reach pays only for the rows it reaches. 0 means not
	// yet summed; a row that sums to 0 is summed again, to the same bits.
	scratch := make([]float64, 3*n)
	in, nextIn, outSum := scratch[:n:n], scratch[n:2*n:2*n], scratch[2*n:]
	in[source] = as.Injection

	for iter := 0; iter < as.MaxIter; iter++ {
		active := false
		for i := range nextIn {
			nextIn[i] = 0
		}
		for v := 0; v < n; v++ {
			e := in[v]
			if e <= 0 {
				continue
			}
			if e > as.Tol {
				active = true
			}
			if v != source {
				trust[v] += (1 - as.Spreading) * e
			}
			forward := as.Spreading * e
			to, w := g.Out(v)
			total := outSum[v]
			if total == 0 {
				for i2, u := range to {
					if int(u) != v {
						total += w[i2]
					}
				}
				outSum[v] = total
			}
			// Virtual backward edge to the source with weight 1,
			// excluded for the source itself.
			backWeight := 0.0
			if v != source {
				backWeight = 1
				total += backWeight
			}
			if total <= 0 {
				// Dead end: all energy returns to the source.
				if v != source {
					nextIn[source] += forward
				}
				continue
			}
			for i2, u := range to {
				if int(u) == v {
					continue // self-loops carry no trust
				}
				nextIn[u] += forward * w[i2] / total
			}
			if backWeight > 0 {
				nextIn[source] += forward * backWeight / total
			}
		}
		in, nextIn = nextIn, in
		if !active {
			break
		}
	}
	return trust, nil
}

// L1Distance returns the L1 distance between two equal-length vectors,
// used to compare propagation outputs across webs. It panics on length
// mismatch.
func L1Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("propagation: L1Distance length mismatch")
	}
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}
