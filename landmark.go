package weboftrust

import (
	"fmt"

	"weboftrust/internal/core"
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
// use.
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
// vector as landmarks, in core.RankRow's order (score descending, id
// ascending on ties, zero scores never selected): the deterministic
// selection rule the serving layer applies to each state's cold
// EigenTrust vector (GlobalRanks). It returns nil when nothing is
// selected.
func SelectLandmarkIDs(rank []float64, l int) []int32 {
	var ids []int32
	for _, r := range core.RankRow(rank, l) {
		ids = append(ids, int32(r.User))
	}
	return ids
}

// BuildLandmarkSketch computes the sketch: one full propagation run per
// landmark through the model's PropagateInto, so a landmark's sketched
// vector is bitwise-identical to querying it directly.
func (m *TrustModel) BuildLandmarkSketch(algo PropagationAlgo, ids []int32) (*LandmarkSketch, error) {
	numU := m.dataset.NumUsers()
	out := &LandmarkSketch{Algo: algo, sk: propagation.Sketch{
		IDs:  ids,
		Vecs: make([][]float64, len(ids)),
	}}
	for i, id := range ids {
		if int(id) < 0 || int(id) >= numU {
			return nil, fmt.Errorf("weboftrust: landmark %d out of range (%d users)", id, numU)
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
