package anomaly

import (
	"math"
	"testing"

	"weboftrust/internal/graph"
)

// TestUnreciprocatedCliqueMemberScoresZero: node 5 trusts every member
// of the reciprocated 5-clique 0..4, so its neighbourhood clusters at 1,
// but none of them trusts it back, and its graph signal is exactly +0
// without the clustering pass. One edge back makes the signal positive.
func TestUnreciprocatedCliqueMemberScoresZero(t *testing.T) {
	var edges []graph.Edge
	for a := 0; a < 5; a++ {
		for b := 0; b < 5; b++ {
			if a != b {
				edges = append(edges, graph.Edge{From: a, To: b, Weight: 1})
			}
		}
		edges = append(edges, graph.Edge{From: 5, To: a, Weight: 1})
	}
	g, err := graph.New(6, edges)
	if err != nil {
		t.Fatal(err)
	}
	if c := g.LocalClustering(5); c != 1 {
		t.Fatalf("LocalClustering(5) = %v, want 1", c)
	}
	if s := graphSignal(g, 5); math.Float64bits(s) != 0 {
		t.Fatalf("graphSignal(5) = %v (bits %#x), want +0", s, math.Float64bits(s))
	}

	back, err := graph.New(6, append(edges, graph.Edge{From: 0, To: 5, Weight: 1}))
	if err != nil {
		t.Fatal(err)
	}
	// conf 5/7 · reciprocated 1/5 · (0.35 + 0.65 · clustering 1).
	want := 5.0 / 7.0 * (1.0 / 5.0) * (0.35 + 0.65*1.0)
	if s := graphSignal(back, 5); math.Abs(s-want) > 1e-15 {
		t.Fatalf("graphSignal(5) with one edge back = %v, want %v", s, want)
	}
}
