package weboftrust

import (
	"slices"
	"testing"

	"weboftrust/internal/synth"
)

func TestSelectLandmarkIDs(t *testing.T) {
	rank := []float64{0.1, 0.5, 0, 0.5, 0.9, 0.05}
	got := SelectLandmarkIDs(rank, 4)
	want := []int32{4, 1, 3, 0} // score desc, id asc on the 0.5 tie
	if !slices.Equal(got, want) {
		t.Fatalf("SelectLandmarkIDs = %v, want %v", got, want)
	}
	// Zero-rank nodes are never selected even when l exceeds the supply.
	if got := SelectLandmarkIDs(rank, 10); len(got) != 5 {
		t.Errorf("SelectLandmarkIDs over-asked = %v, want the 5 nonzero-rank nodes", got)
	}
	if got := SelectLandmarkIDs(rank, 0); got != nil {
		t.Errorf("SelectLandmarkIDs(_, 0) = %v, want nil", got)
	}
	if got := SelectLandmarkIDs([]float64{0, 0}, 2); got != nil {
		t.Errorf("SelectLandmarkIDs over an all-zero vector = %v, want nil", got)
	}
}

// landmarkRelL1 composes the landmark approximation for every 7th user
// and returns mean and max relative L1 distance from the exact
// traversal, normalised by the exact vector's mass.
func landmarkRelL1(t *testing.T, m *TrustModel, sk *LandmarkSketch, n int) (mean, max float64) {
	t.Helper()
	exact := make([]float64, n)
	approx := make([]float64, n)
	samples := 0
	for u := 0; u < n; u += 7 {
		if err := m.PropagateInto(sk.Algo, UserID(u), exact); err != nil {
			t.Fatal(err)
		}
		if err := m.ComposeLandmarks(sk, UserID(u), approx); err != nil {
			t.Fatal(err)
		}
		var l1, norm float64
		for i := range exact {
			d := exact[i] - approx[i]
			if d < 0 {
				d = -d
			}
			l1 += d
			norm += exact[i]
		}
		if norm > 0 {
			l1 /= norm
		}
		if l1 > max {
			max = l1
		}
		mean += l1
		samples++
	}
	return mean / float64(samples), max
}

// TestLandmarkComposeErrorEnvelope pins the accuracy contract of the
// `?approx=landmark` mode on the Small community with 16 landmarks: the
// composed vector's relative L1 distance from the exact traversal stays
// inside a measured envelope for every algorithm. The approximation is
// deliberately coarse — it trades accuracy for O(L·U) serving cost — so
// the envelope is wide, but it is PINNED: a regression that makes the
// composition drift (wrong frontier, broken gate, stale sketch) breaks
// this test long before it is visible in a benchmark.
func TestLandmarkComposeErrorEnvelope(t *testing.T) {
	d, _, err := synth.Generate(synth.Small())
	if err != nil {
		t.Fatal(err)
	}
	m, err := Derive(d)
	if err != nil {
		t.Fatal(err)
	}
	rank, _, err := m.GlobalRanks()
	if err != nil {
		t.Fatal(err)
	}
	ids := SelectLandmarkIDs(rank, 16)
	if len(ids) == 0 {
		t.Fatal("no landmarks selected")
	}
	n := d.NumUsers()
	// Measured on this community: appleseed mean≈0.42/max≈0.94,
	// moletrust mean≈0.32/max≈2.5 (the gate can overshoot a source whose
	// exact reach is tiny), tidaltrust mean≈0.18/max≈0.49. Pinned with
	// ~1.4x headroom.
	bounds := map[PropagationAlgo]struct{ mean, max float64 }{
		PropagateAppleseed:  {0.60, 1.30},
		PropagateMoleTrust:  {0.50, 3.50},
		PropagateTidalTrust: {0.30, 0.70},
	}
	for _, algo := range []PropagationAlgo{PropagateAppleseed, PropagateMoleTrust, PropagateTidalTrust} {
		sk, err := m.BuildLandmarkSketch(algo, ids)
		if err != nil {
			t.Fatal(err)
		}
		mean, max := landmarkRelL1(t, m, sk, n)
		t.Logf("%v: landmark relL1 mean=%.4f max=%.4f", algo, mean, max)
		b := bounds[algo]
		if mean > b.mean {
			t.Errorf("%v: landmark mean relative L1 = %v, bound %v", algo, mean, b.mean)
		}
		if max > b.max {
			t.Errorf("%v: landmark max relative L1 = %v, bound %v", algo, max, b.max)
		}
	}
}

// TestLandmarkSketchSelfVectors pins the sketch build contract: a
// landmark's sketched vector is bitwise-identical to propagating from it
// directly, selection order follows the rank vector, and out-of-range
// landmark ids are rejected.
func TestLandmarkSketchSelfVectors(t *testing.T) {
	d, _, err := synth.Generate(synth.Small())
	if err != nil {
		t.Fatal(err)
	}
	m, err := Derive(d)
	if err != nil {
		t.Fatal(err)
	}
	rank, _, err := m.GlobalRanks()
	if err != nil {
		t.Fatal(err)
	}
	ids := SelectLandmarkIDs(rank, 8)
	for i := 1; i < len(ids); i++ {
		a, b := ids[i-1], ids[i]
		if rank[a] < rank[b] || (rank[a] == rank[b] && a > b) {
			t.Fatalf("selection %v not rank-descending at %d", ids, i)
		}
	}
	sk, err := m.BuildLandmarkSketch(PropagateAppleseed, ids)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, d.NumUsers())
	for i, id := range sk.Landmarks() {
		if err := m.PropagateInto(PropagateAppleseed, UserID(id), want); err != nil {
			t.Fatal(err)
		}
		vec := sk.Vector(i)
		for v := range want {
			if vec[v] != want[v] {
				t.Fatalf("landmark %d vec[%d] = %v, direct propagation %v", id, v, vec[v], want[v])
			}
		}
	}
	if _, err := m.BuildLandmarkSketch(PropagateMoleTrust, []int32{int32(d.NumUsers())}); err == nil {
		t.Error("out-of-range landmark accepted")
	}
}
