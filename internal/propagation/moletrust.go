package propagation

import (
	"fmt"

	"weboftrust/internal/graph"
)

// MoleTrust implements Massa and Avesani's local trust metric, the other
// canonical propagation algorithm of the trust-aware recommender
// literature the paper builds toward. The graph is DAG-ified by BFS
// distance from the source (only depth d-1 → d edges propagate, removing
// cycles), and each node's predicted trust is the trust-weighted average
// of its accepted predecessors:
//
//	trust(v) = Σ_{u: trust(u) >= Threshold} trust(u)·w(u,v) / Σ trust(u)
//
// Nodes farther than MaxDepth (the "trust horizon") are not evaluated.
type MoleTrust struct {
	// MaxDepth is the trust horizon; must be >= 1.
	MaxDepth int
	// Threshold is the minimum trust a node needs to propagate onwards,
	// in [0, 1]. Massa & Avesani use 0.6 on a [0,1] scale.
	Threshold float64
}

// DefaultMoleTrust returns the conventional parameterisation.
func DefaultMoleTrust() MoleTrust {
	return MoleTrust{MaxDepth: 3, Threshold: 0.6}
}

// Rank computes predicted trust from the source's viewpoint for every
// node within the horizon. The source's own entry is 1 (it trusts itself
// fully); unreachable or beyond-horizon nodes are 0.
func (mt MoleTrust) Rank(g *graph.Graph, source int) ([]float64, error) {
	if mt.MaxDepth < 1 {
		return nil, fmt.Errorf("%w: MaxDepth %d < 1", ErrBadConfig, mt.MaxDepth)
	}
	if mt.Threshold < 0 || mt.Threshold > 1 {
		return nil, fmt.Errorf("%w: Threshold %v outside [0,1]", ErrBadConfig, mt.Threshold)
	}
	n := g.NumNodes()
	if source < 0 || source >= n {
		return nil, fmt.Errorf("%w: source %d out of range %d", ErrBadConfig, source, n)
	}
	depth := g.BFSDepths(source, mt.MaxDepth)
	byDepth := make([][]int, mt.MaxDepth+1)
	for v, d := range depth {
		if d >= 0 && d <= mt.MaxDepth {
			byDepth[d] = append(byDepth[d], v)
		}
	}
	trust := make([]float64, n)
	trust[source] = 1
	for d := 1; d <= mt.MaxDepth; d++ {
		for _, v := range byDepth[d] {
			from, w := g.In(v)
			var num, den float64
			for k, u := range from {
				if depth[u] != d-1 {
					continue // distance DAG: only previous-ring edges
				}
				tu := trust[u]
				if tu < mt.Threshold {
					continue
				}
				num += tu * w[k]
				den += tu
			}
			if den > 0 {
				trust[v] = num / den
			}
		}
	}
	return trust, nil
}

// Coverage reports the fraction of (source, sink) pairs for which
// MoleTrust produces a positive prediction, over the sampled sources.
func (mt MoleTrust) Coverage(g *graph.Graph, sources []int) (float64, error) {
	if len(sources) == 0 || g.NumNodes() < 2 {
		return 0, nil
	}
	answered, total := 0, 0
	for _, s := range sources {
		if s < 0 || s >= g.NumNodes() {
			continue
		}
		ranks, err := mt.Rank(g, s)
		if err != nil {
			return 0, err
		}
		for v, r := range ranks {
			if v == s {
				continue
			}
			total++
			if r > 0 {
				answered++
			}
		}
	}
	if total == 0 {
		return 0, nil
	}
	return float64(answered) / float64(total), nil
}

func (mt MoleTrust) String() string {
	return fmt.Sprintf("MoleTrust(maxDepth=%d, threshold=%.2f)", mt.MaxDepth, mt.Threshold)
}
