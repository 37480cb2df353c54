package weboftrust

import (
	"fmt"

	"weboftrust/internal/propagation"
	"weboftrust/internal/ratings"
)

// LandmarkSketch holds the full propagation vectors of L landmark hubs
// under one algorithm — the precomputed half of the `?approx=landmark`
// serving mode. Pavlovic's hub observation motivates it: a few
// globally-trusted nodes carry most propagation mass, so any source's
// view can be assembled from its direct-neighbour frontier plus its
// best paths into each landmark (ComposeLandmarks) at O(L·U) instead of
// a traversal. A sketch is immutable once built and safe for concurrent
// use; swaps produce a successor with RefreshLandmarkSketch, carrying
// every landmark vector the taint invariant proves unchanged.
type LandmarkSketch struct {
	// Algo is the propagation algorithm the vectors were computed under.
	Algo PropagationAlgo
	sk   propagation.Sketch
}

// Landmarks returns the landmark user ids in selection order. The slice
// is shared; do not modify it.
func (sk *LandmarkSketch) Landmarks() []int32 { return sk.sk.IDs }

// Vector returns landmark i's full propagation vector (shared; do not
// modify).
func (sk *LandmarkSketch) Vector(i int) []float64 { return sk.sk.Vecs[i] }

// SelectLandmarkIDs picks the l highest-scoring nodes of the rank
// vector as landmarks — score descending, id ascending on ties, zero
// scores never selected — the deterministic selection rule the serving
// layer applies to its warm EigenTrust vector at every swap.
func SelectLandmarkIDs(rank []float64, l int) []int32 {
	return propagation.SelectLandmarks(rank, l)
}

// BuildLandmarkSketch computes the sketch from scratch: one full
// propagation run per landmark through the model's PropagateInto, so a
// landmark's sketched vector is bitwise-identical to querying it
// directly.
func (m *TrustModel) BuildLandmarkSketch(algo PropagationAlgo, ids []int32) (*LandmarkSketch, error) {
	return m.RefreshLandmarkSketch(nil, algo, ids, nil)
}

// RefreshLandmarkSketch builds the sketch for ids, carrying vectors
// from prev wherever the taint invariant proves them unchanged: a
// landmark absent from tainted has no dirty user reachable from it, so
// its propagation vector is byte-identical to a fresh compute (new
// users — always dirty — stay zero in it, so a shorter carried vector
// is zero-padded). Landmarks that are tainted, new to the selection, or
// lack a usable prev vector are recomputed. prev == nil or tainted ==
// nil (no predecessor / a full swap) recomputes everything.
func (m *TrustModel) RefreshLandmarkSketch(prev *LandmarkSketch, algo PropagationAlgo, ids []int32, tainted []bool) (*LandmarkSketch, error) {
	numU := m.dataset.NumUsers()
	out := &LandmarkSketch{Algo: algo, sk: propagation.Sketch{
		IDs:  ids,
		Vecs: make([][]float64, len(ids)),
	}}
	for i, id := range ids {
		if int(id) < 0 || int(id) >= numU {
			return nil, fmt.Errorf("weboftrust: landmark %d out of range (%d users)", id, numU)
		}
		if prev != nil && prev.Algo == algo && tainted != nil &&
			(int(id) >= len(tainted) || !tainted[id]) {
			if j := prev.sk.Landmark(id); j >= 0 && len(prev.sk.Vecs[j]) <= numU {
				vec := prev.sk.Vecs[j]
				if len(vec) < numU {
					padded := make([]float64, numU)
					copy(padded, vec)
					vec = padded
				}
				out.sk.Vecs[i] = vec
				continue
			}
		}
		vec := make([]float64, numU)
		if err := m.PropagateInto(algo, ratings.UserID(id), vec); err != nil {
			return nil, err
		}
		out.sk.Vecs[i] = vec
	}
	return out, nil
}

// ComposeLandmarks fills dst (length U, overwritten) with the
// landmark-approximate propagation vector for source: the source's
// direct-neighbour frontier, upper-bounded per node by each landmark's
// vector scaled by the source's best ≤2-hop path strength into it.
// dst[source] is zero, like every propagation result. The composition
// runs over the same graph PropagateInto traverses.
func (m *TrustModel) ComposeLandmarks(sk *LandmarkSketch, source UserID, dst []float64) error {
	numU := m.dataset.NumUsers()
	if len(dst) != numU {
		return fmt.Errorf("weboftrust: ComposeLandmarks dst length %d, want %d", len(dst), numU)
	}
	if int(source) < 0 || int(source) >= numU {
		return fmt.Errorf("weboftrust: propagate source %d out of range (%d users)", source, numU)
	}
	var frontier propagation.Frontier
	switch sk.Algo {
	case PropagateAppleseed:
		frontier = propagation.AppleseedFrontier(propagation.DefaultAppleseed())
	case PropagateMoleTrust, PropagateTidalTrust:
		frontier = propagation.UnitFrontier
	default:
		return fmt.Errorf("weboftrust: unknown propagation algorithm %d", int(sk.Algo))
	}
	return sk.sk.Compose(m.WebOfTrust().Graph(), int(source), frontier, dst)
}
