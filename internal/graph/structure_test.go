package graph

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"weboftrust/internal/stats"
)

func TestReciprocity(t *testing.T) {
	// 0<->1 reciprocal, 0->2 one-way: 2 of 3 edges reciprocated.
	g := mustNew(t, 3, []Edge{{0, 1, 1}, {1, 0, 1}, {0, 2, 1}})
	if got := g.Reciprocity(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("Reciprocity = %v, want 2/3", got)
	}
	empty := mustNew(t, 2, nil)
	if empty.Reciprocity() != 0 {
		t.Error("empty graph reciprocity should be 0")
	}
	full := mustNew(t, 2, []Edge{{0, 1, 1}, {1, 0, 1}})
	if full.Reciprocity() != 1 {
		t.Error("fully reciprocal graph should be 1")
	}
}

func TestLocalClusteringTriangle(t *testing.T) {
	// Triangle 0-1-2 (directed arbitrarily): every node clusters at 1.
	g := mustNew(t, 3, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}})
	for v := 0; v < 3; v++ {
		if got := g.LocalClustering(v); got != 1 {
			t.Errorf("LocalClustering(%d) = %v, want 1", v, got)
		}
	}
}

func TestLocalClusteringStar(t *testing.T) {
	// Star: hub 0 with leaves 1..3, no leaf-leaf edges: hub clusters 0.
	g := mustNew(t, 4, []Edge{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}})
	if got := g.LocalClustering(0); got != 0 {
		t.Errorf("hub clustering = %v, want 0", got)
	}
	// Leaves have a single neighbour: 0 by convention.
	if got := g.LocalClustering(1); got != 0 {
		t.Errorf("leaf clustering = %v, want 0", got)
	}
}

func TestLocalClusteringPartial(t *testing.T) {
	// Hub 0 with neighbours 1,2,3; only 1-2 connected: 1 of 3 pairs.
	g := mustNew(t, 4, []Edge{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {1, 2, 1}})
	if got := g.LocalClustering(0); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("clustering = %v, want 1/3", got)
	}
}

func TestMeanClustering(t *testing.T) {
	g := mustNew(t, 3, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}})
	if got := g.MeanClustering(nil); got != 1 {
		t.Errorf("MeanClustering(all) = %v, want 1", got)
	}
	if got := g.MeanClustering([]int{0}); got != 1 {
		t.Errorf("MeanClustering(sample) = %v, want 1", got)
	}
	if got := g.MeanClustering([]int{}); got != 0 {
		t.Errorf("MeanClustering(empty) = %v, want 0", got)
	}
}

func TestLargestSCCSize(t *testing.T) {
	g := mustNew(t, 5, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}, {3, 0, 1}})
	if got := g.LargestSCCSize(); got != 3 {
		t.Errorf("LargestSCCSize = %d, want 3", got)
	}
	if got := mustNew(t, 0, nil).LargestSCCSize(); got != 0 {
		t.Errorf("empty graph = %d, want 0", got)
	}
}

// Property: clustering coefficients live in [0,1]; reciprocity too.
func TestStructureRangesQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRand(seed)
		n := 2 + rng.IntN(12)
		var edges []Edge
		for k := 0; k < rng.IntN(4*n); k++ {
			edges = append(edges, Edge{From: rng.IntN(n), To: rng.IntN(n), Weight: 1})
		}
		g, err := New(n, edges)
		if err != nil {
			return false
		}
		r := g.Reciprocity()
		if r < 0 || r > 1 {
			return false
		}
		for v := 0; v < n; v++ {
			c := g.LocalClustering(v)
			if c < 0 || c > 1 {
				return false
			}
		}
		m := g.MeanClustering(nil)
		return m >= 0 && m <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// pairwiseClustering is LocalClustering as it was before the merge: the
// neighbour set gathered through a map and sorted, then two Weight
// lookups per neighbour pair. It is the oracle for the merge.
func pairwiseClustering(g *Graph, v int) float64 {
	set := make(map[int]bool)
	to, _ := g.Out(v)
	from, _ := g.In(v)
	for _, u := range append(append([]int32(nil), to...), from...) {
		if int(u) != v {
			set[int(u)] = true
		}
	}
	neighbours := make([]int, 0, len(set))
	for u := range set {
		neighbours = append(neighbours, u)
	}
	sort.Ints(neighbours)
	k := len(neighbours)
	if k < 2 {
		return 0
	}
	links := 0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			a, b := neighbours[i], neighbours[j]
			if _, ok := g.Weight(a, b); ok {
				links++
				continue
			}
			if _, ok := g.Weight(b, a); ok {
				links++
			}
		}
	}
	return float64(links) / float64(k*(k-1)/2)
}

// randomStructureGraph draws a graph with the shapes clustering has to
// get right: nodes from active on are isolated, the first few active
// nodes are hubs that take a quarter of the edge ends, a third of the
// edges are reciprocated, and some nodes carry self-loops.
func randomStructureGraph(seed uint64) (*Graph, error) {
	rng := stats.NewRand(seed)
	n := 2 + rng.IntN(40)
	active := 1 + rng.IntN(n)
	hubs := min(1+rng.IntN(3), active)
	var edges []Edge
	for k := rng.IntN(6 * active); k > 0; k-- {
		from, to := rng.IntN(active), rng.IntN(active)
		if rng.IntN(4) == 0 {
			from = rng.IntN(hubs)
		}
		if rng.IntN(4) == 0 {
			to = rng.IntN(hubs)
		}
		edges = append(edges, Edge{From: from, To: to, Weight: 1})
		if rng.IntN(3) == 0 {
			edges = append(edges, Edge{From: to, To: from, Weight: 1})
		}
	}
	for k := rng.IntN(4); k > 0; k-- {
		v := rng.IntN(active)
		edges = append(edges, Edge{From: v, To: v, Weight: 1})
	}
	return New(n, edges)
}

// Property: the merge-based LocalClustering returns the pairwise
// oracle's bits at every node of random graphs with self-loops,
// reciprocal pairs, hubs and isolated nodes.
func TestLocalClusteringMatchesPairwiseQuick(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := randomStructureGraph(seed)
		if err != nil {
			return false
		}
		for v := 0; v < g.NumNodes(); v++ {
			got, want := g.LocalClustering(v), pairwiseClustering(g, v)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Logf("seed %d node %d: LocalClustering = %v, pairwise = %v", seed, v, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: undirectedNeighbours is the sorted union of Out and In,
// without v itself.
func TestUndirectedNeighboursIsSortedUnionQuick(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := randomStructureGraph(seed)
		if err != nil {
			return false
		}
		for v := 0; v < g.NumNodes(); v++ {
			to, _ := g.Out(v)
			from, _ := g.In(v)
			var want []int32
			for _, u := range append(append([]int32(nil), to...), from...) {
				if int(u) != v && !slices.Contains(want, u) {
					want = append(want, u)
				}
			}
			slices.Sort(want)
			if got := g.undirectedNeighbours(v); !slices.Equal(got, want) {
				t.Logf("seed %d node %d: undirectedNeighbours = %v, want %v", seed, v, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
