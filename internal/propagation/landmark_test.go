package propagation

import (
	"math"
	"testing"

	"weboftrust/internal/graph"
)

// TestSketchComposeBasics pins the composition contract on a graph small
// enough to reason about: the direct frontier appears, a landmark's
// vector is gated by the source's best path into it, and the source
// never ranks itself.
func TestSketchComposeBasics(t *testing.T) {
	// 0 -> 1 (0.8), 1 -> 2 (0.5), 2 -> 3 (0.9). Landmark: node 1.
	g := mustGraph(t, 4, []graph.Edge{
		{From: 0, To: 1, Weight: 0.8},
		{From: 1, To: 2, Weight: 0.5},
		{From: 2, To: 3, Weight: 0.9},
	})
	lvec, err := DefaultMoleTrust().Rank(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	lvec[1] = 0
	sk := Sketch{IDs: []int32{1}, Vecs: [][]float64{lvec}}
	dst := make([]float64, 4)
	if err := sk.Compose(g, 0, UnitFrontier, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0 {
		t.Errorf("compose ranked the source itself: %v", dst[0])
	}
	if dst[1] != 0.8 {
		t.Errorf("direct frontier dst[1] = %v, want 0.8", dst[1])
	}
	// Node 2 is visible only through the landmark: gate (direct edge 0.8)
	// times the landmark's trust in 2.
	if want := 0.8 * lvec[2]; math.Abs(dst[2]-want) > 1e-12 {
		t.Errorf("through-landmark dst[2] = %v, want %v", dst[2], want)
	}
	// A landmark the source cannot reach within 2 hops contributes nothing.
	sk2 := Sketch{IDs: []int32{3}, Vecs: [][]float64{{0.1, 0.2, 0.3, 0}}}
	dst2 := make([]float64, 4)
	if err := sk2.Compose(g, 0, UnitFrontier, dst2); err != nil {
		t.Fatal(err)
	}
	for v := 2; v < 4; v++ {
		if dst2[v] != 0 {
			t.Errorf("unreachable landmark leaked mass: dst[%d] = %v", v, dst2[v])
		}
	}
	if err := sk.Compose(g, 0, UnitFrontier, make([]float64, 3)); err == nil {
		t.Error("short dst accepted")
	}
	if err := sk.Compose(g, 9, UnitFrontier, dst); err == nil {
		t.Error("out-of-range source accepted")
	}
}
