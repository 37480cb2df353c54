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
	// means unlimited. A deeper search costs InferAll only the nodes it
	// adds: one forward visit each and, per added sink, a backward pass
	// over that sink's shortest-path ancestors.
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

// InferResult is one sink's entry of InferAll: Infer's value and ok.
type InferResult struct {
	Value float64
	OK    bool
}

// InferAll computes trust from source to every node: entry sink holds
// exactly what Infer(g, source, sink) returns, bit for bit, and entries
// for unreachable sinks (or the source itself) have OK=false.
//
// It runs one BFS and one forward strength pass for all sinks, because a
// node's strength depends only on shallower nodes, never on the sink.
// Only the backward pass is per sink, and it visits just the nodes that
// can become known there: level by level up from the sink, the
// shortest-path predecessors (over In edges) of the previous level's
// known nodes. Each such node sums its Out row in Infer's order under
// Infer's conditions, so the values are Infer's to the bit. Scratch is
// allocated once per call and stamped per sink.
func (tt TidalTrust) InferAll(g *graph.Graph, source int) []InferResult {
	n := g.NumNodes()
	out := make([]InferResult, n)
	if source < 0 || source >= n {
		return out
	}

	// BFS from the source, as Infer's BFSDepths; order lists the reached
	// nodes by nondecreasing depth.
	depth := make([]int32, n)
	for i := range depth {
		depth[i] = -1
	}
	order := make([]int32, 1, n)
	order[0] = int32(source)
	depth[source] = 0
	for head := 0; head < len(order); head++ {
		u := order[head]
		if tt.MaxDepth > 0 && int(depth[u]) >= tt.MaxDepth {
			continue
		}
		to, _ := g.Out(int(u))
		for _, v := range to {
			if depth[v] < 0 {
				depth[v] = depth[u] + 1
				order = append(order, v)
			}
		}
	}

	// Forward pass, as Infer's, over every reached node at once. max and
	// min are exact, so the visiting order cannot change a strength.
	const inf = 1e18
	strength := make([]float64, n)
	for i := range strength {
		strength[i] = -1
	}
	strength[source] = inf
	for _, u := range order {
		su := strength[u]
		if su < 0 {
			continue
		}
		to, w := g.Out(int(u))
		for i, v := range to {
			if depth[v] != depth[u]+1 {
				continue
			}
			s := su
			if w[i] < s {
				s = w[i]
			}
			if s > strength[v] {
				strength[v] = s
			}
		}
	}

	// A direct edge answers with its weight before any search, as in
	// Infer.
	to, w := g.Out(source)
	for i, v := range to {
		if int(v) != source {
			out[v] = InferResult{Value: w[i], OK: true}
		}
	}

	// Backward pass per sink. seen and known hold the stamp of the sink
	// whose pass collected a node as a candidate and found it known.
	value := make([]float64, n)
	seen := make([]int32, n)
	known := make([]int32, n)
	var level, cand []int32
	for _, t := range order[1:] {
		sink := int(t)
		threshold := strength[sink]
		if out[sink].OK || threshold < 0 {
			continue
		}
		stamp := t + 1
		level = append(level[:0], t)
		for d := depth[sink] - 1; d >= 0 && len(level) > 0; d-- {
			// Only a shortest-path predecessor of a known node can
			// become known at depth d.
			cand = cand[:0]
			for _, v := range level {
				from, _ := g.In(int(v))
				for _, u := range from {
					if depth[u] == d && seen[u] != stamp && strength[u] >= 0 {
						seen[u] = stamp
						cand = append(cand, u)
					}
				}
			}
			level = level[:0]
			for _, u := range cand {
				var num, den float64
				to, w := g.Out(int(u))
				for i, v := range to {
					if int(v) == sink {
						num += w[i] * w[i]
						den += w[i]
						continue
					}
					// Infer's conditions, known first: it rejects
					// nearly every edge.
					if known[v] != stamp || depth[v] != d+1 || w[i] < threshold {
						continue
					}
					num += w[i] * value[v]
					den += w[i]
				}
				if den > 0 {
					value[u] = num / den
					known[u] = stamp
					level = append(level, u)
				}
			}
		}
		if known[source] == stamp {
			out[sink] = InferResult{Value: value[source], OK: true}
		}
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
