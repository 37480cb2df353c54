package propagation

import (
	"fmt"

	"weboftrust/internal/graph"
)

// Landmark sketches approximate personalised propagation without a
// per-source traversal. Pavlovic's hub observation is the license: a
// few globally-trusted nodes carry most propagation mass, so keeping
// the full propagation vector of L such hubs lets any source's view be
// assembled as "what I see directly, plus what my best paths into each
// hub let me see through it" — a triangle-inequality-style composition
// that costs O(L·n) instead of a traversal.

// Sketch holds the full propagation vectors of the selected landmarks,
// in the raw (unnormalised) score scale of the generating algorithm so
// composed scores are comparable to exact ones.
type Sketch struct {
	// IDs are the landmark node ids, in selection order.
	IDs []int32
	// Vecs[i] is the full propagation vector of IDs[i]; Vecs[i][v] is the
	// landmark's trust in node v, with Vecs[i][IDs[i]] == 0.
	Vecs [][]float64
}

// Frontier maps a direct edge (weight w out of a source whose positive
// out-weight totals total) to the score the source's one-hop view
// assigns the target. Each algorithm supplies its own: Appleseed's
// first hop retains (1−d)·d·Injection·w/total energy; the [0,1]-scaled
// algorithms score a direct neighbour by the edge weight itself.
type Frontier func(w, total float64) float64

// AppleseedFrontier is the one-hop retained energy under as.
func AppleseedFrontier(as Appleseed) Frontier {
	return func(w, total float64) float64 {
		if total <= 0 {
			return 0
		}
		return (1 - as.Spreading) * as.Spreading * as.Injection * w / total
	}
}

// UnitFrontier scores a direct neighbour by its edge weight — the
// first-hop behaviour MoleTrust and TidalTrust share.
func UnitFrontier(w, total float64) float64 { return w }

// Compose assembles the approximate propagation vector for source into
// dst (len n, overwritten): the direct-neighbour frontier, upper-bounded
// per node by each landmark's vector scaled by the source's best ≤2-hop
// path strength into that landmark. dst[source] is 0, matching the
// exact algorithms' "a source does not rank itself" contract.
func (sk Sketch) Compose(g *graph.Graph, source int, frontier Frontier, dst []float64) error {
	n := g.NumNodes()
	if len(dst) != n {
		return fmt.Errorf("%w: compose dst len %d != %d nodes", ErrBadConfig, len(dst), n)
	}
	if source < 0 || source >= n {
		return fmt.Errorf("%w: source %d out of range %d", ErrBadConfig, source, n)
	}
	for i := range dst {
		dst[i] = 0
	}
	to, w := g.Out(source)
	total := 0.0
	for i, u := range to {
		if int(u) != source {
			total += w[i]
		}
	}
	for i, u := range to {
		if int(u) == source {
			continue
		}
		if f := frontier(w[i], total); f > dst[u] {
			dst[u] = f
		}
	}
	for li, l := range sk.IDs {
		if int(l) == source {
			continue
		}
		// Gate: the source's best path strength into the landmark —
		// the direct edge if present, else the strongest 2-hop product.
		gate, direct := g.Weight(source, int(l))
		if !direct {
			gate = 0
			for i, t := range to {
				if int(t) == source {
					continue
				}
				if wt, ok := g.Weight(int(t), int(l)); ok {
					if p := w[i] * wt; p > gate {
						gate = p
					}
				}
			}
		}
		if gate <= 0 {
			continue
		}
		vec := sk.Vecs[li]
		for v, lv := range vec {
			if s := gate * lv; s > dst[v] {
				dst[v] = s
			}
		}
	}
	dst[source] = 0
	return nil
}
