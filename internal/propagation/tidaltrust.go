// Package propagation implements the trust-propagation algorithms the
// paper positions itself against and proposes as future work: TidalTrust
// (Golbeck, the paper's reference [3]), EigenTrust (Kamvar et al., [8])
// and Appleseed-style spreading activation (Ziegler & Lausen, [9]).
//
// The paper's conclusion proposes propagating the *derived* web of trust
// and comparing against propagation over the explicit web; the experiments
// package builds both graphs and runs these algorithms over each.
package propagation

import (
	"errors"
	"fmt"

	"weboftrust/internal/graph"
)

// ErrBadConfig reports invalid algorithm parameters.
var ErrBadConfig = errors.New("propagation: invalid configuration")

// TidalTrust infers a personalised trust value from a source to a sink
// over a weighted trust network, following Golbeck's algorithm: restrict
// to shortest paths, compute the path-strength threshold (the maximum over
// shortest paths of the minimum edge weight), then average trust backward
// from the sink over edges meeting the threshold:
//
//	t(u, sink) = Σ_{v: t_uv >= max} t_uv · t(v, sink) / Σ t_uv
//
// Golbeck's evaluation showed shorter paths and higher-trust neighbours
// predict best; both principles are what the threshold encodes.
type TidalTrust struct {
	// MaxDepth caps the BFS search depth (path length). Zero or negative
	// means unlimited, which on large graphs can be slow.
	MaxDepth int
}

// Infer computes the trust value from source to sink. ok is false when no
// path within MaxDepth exists (the network cannot answer). A direct edge
// source->sink returns its weight.
func (tt TidalTrust) Infer(g *graph.Graph, source, sink int) (value float64, ok bool) {
	n := g.NumNodes()
	if source < 0 || source >= n || sink < 0 || sink >= n || source == sink {
		return 0, false
	}
	if w, direct := g.Weight(source, sink); direct {
		return w, true
	}
	maxDepth := tt.MaxDepth
	if maxDepth <= 0 {
		maxDepth = -1
	}
	depth := g.BFSDepths(source, maxDepth)
	sinkDepth := depth[sink]
	if sinkDepth < 0 {
		return 0, false
	}

	// Forward pass over shortest-path edges: strength(v) is the best
	// bottleneck weight of any shortest path source->v.
	// Process nodes in BFS depth order.
	byDepth := make([][]int, sinkDepth+1)
	for v, d := range depth {
		if d >= 0 && d <= sinkDepth {
			byDepth[d] = append(byDepth[d], v)
		}
	}
	const inf = 1e18
	strength := make([]float64, n)
	for i := range strength {
		strength[i] = -1
	}
	strength[source] = inf
	for d := 0; d < sinkDepth; d++ {
		for _, u := range byDepth[d] {
			if strength[u] < 0 {
				continue // not on a live shortest path
			}
			to, w := g.Out(u)
			for i, v := range to {
				if depth[v] != d+1 {
					continue
				}
				s := strength[u]
				if w[i] < s {
					s = w[i]
				}
				if s > strength[v] {
					strength[v] = s
				}
			}
		}
	}
	threshold := strength[sink]
	if threshold < 0 {
		return 0, false
	}

	// Backward pass: value(v) for nodes on shortest paths, from the
	// sink's predecessors up to the source. Nodes at depth sinkDepth-1
	// use their direct edge to the sink; shallower nodes average their
	// shortest-path successors over edges meeting the threshold.
	value2 := make([]float64, n)
	known := make([]bool, n)
	value2[sink] = 1
	known[sink] = true
	for d := sinkDepth - 1; d >= 0; d-- {
		for _, u := range byDepth[d] {
			if strength[u] < 0 {
				continue
			}
			var num, den float64
			to, w := g.Out(u)
			for i, v := range to {
				if int(v) == sink {
					// Direct raters of the sink contribute their own
					// edge weight with full confidence.
					num += w[i] * w[i]
					den += w[i]
					continue
				}
				if depth[v] != d+1 || !known[v] || w[i] < threshold {
					continue
				}
				num += w[i] * value2[v]
				den += w[i]
			}
			if den > 0 {
				value2[u] = num / den
				known[u] = true
			}
		}
	}
	if !known[source] {
		return 0, false
	}
	return value2[source], true
}

// InferAll runs Infer for every sink from one source, reusing the BFS
// where profitable. The result slice has one entry per node; entries for
// unreachable sinks (or the source itself) have OK=false.
type InferResult struct {
	Value float64
	OK    bool
}

// InferAll computes trust from source to every other node.
func (tt TidalTrust) InferAll(g *graph.Graph, source int) []InferResult {
	out := make([]InferResult, g.NumNodes())
	for sink := 0; sink < g.NumNodes(); sink++ {
		if sink == source {
			continue
		}
		v, ok := tt.Infer(g, source, sink)
		out[sink] = InferResult{Value: v, OK: ok}
	}
	return out
}

// Coverage reports the fraction of (source, sink) pairs from the given
// sources for which the network can produce an inference. It is the
// paper's sparsity complaint quantified: sparse explicit webs leave many
// pairs unanswerable.
func (tt TidalTrust) Coverage(g *graph.Graph, sources []int) float64 {
	if len(sources) == 0 || g.NumNodes() < 2 {
		return 0
	}
	answered := 0
	total := 0
	for _, s := range sources {
		if s < 0 || s >= g.NumNodes() {
			continue
		}
		maxDepth := tt.MaxDepth
		if maxDepth <= 0 {
			maxDepth = -1
		}
		depth := g.BFSDepths(s, maxDepth)
		for v, d := range depth {
			if v == s {
				continue
			}
			total++
			if d >= 0 {
				answered++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(answered) / float64(total)
}

func (tt TidalTrust) String() string { return fmt.Sprintf("TidalTrust(maxDepth=%d)", tt.MaxDepth) }
