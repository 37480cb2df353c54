package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"weboftrust/internal/mat"
	"weboftrust/internal/ratings"
	"weboftrust/internal/synth"
)

// requireReadPathsAgree asserts, for every user of dt, that the two row
// evaluators (dense Row and CSC-indexed RowSparse) produce
// bitwise-identical rows, and that Value and its two underlying routes
// (the dense dot and the indexed binary search) agree bitwise on a stride
// of cells.
func requireReadPathsAgree(t *testing.T, label string, dt *DerivedTrust) {
	t.Helper()
	numU := dt.NumUsers()
	dense := make([]float64, numU)
	sparse := make([]float64, numU)
	for u := 0; u < numU; u++ {
		i := ratings.UserID(u)
		dt.Row(i, dense)
		dt.RowSparse(i, sparse)
		for j := range dense {
			if dense[j] != sparse[j] {
				t.Fatalf("%s: RowSparse T̂[%d][%d] = %v, Row = %v", label, u, j, sparse[j], dense[j])
			}
		}
		// Value divides by the row sum (where Row multiplies by its
		// reciprocal, a different last-bit rounding), so its reference is
		// the dense dot divided the same way — and the indexed route must
		// match that reference bitwise.
		for j := u % 13; j < numU; j += 13 {
			jid := ratings.UserID(j)
			sum := dt.rowSum[u]
			want := 0.0
			if sum != 0 {
				want = mat.Dot(dt.affinity.Row(u), dt.expertise.Row(j)) / sum
			}
			if got := dt.Value(i, jid); got != want {
				t.Fatalf("%s: Value(%d, %d) = %v, dense dot = %v", label, u, j, got, want)
			}
			if sum != 0 {
				if got := dt.valueIndexed(i, jid) / sum; got != want {
					t.Fatalf("%s: valueIndexed(%d, %d) = %v, dense dot = %v", label, u, j, got, want)
				}
			}
		}
	}
}

// TestReadPathEquivalenceQuick is the ISSUE 3 equivalence property: with
// the CSC expert-score index in place, the sparse and indexed read paths
// stay bitwise identical to the dense eq. 5 evaluation at every worker
// count, both on freshly-derived artifacts and on artifacts produced by
// the incremental Update.
func TestReadPathEquivalenceQuick(t *testing.T) {
	f := func(seed uint64, touchedRaw, workersRaw uint8) bool {
		scfg := synth.Small()
		scfg.Seed = 1 + seed%16
		d, _, err := synth.Generate(scfg)
		if err != nil {
			t.Fatal(err)
		}
		workers := []int{1, 2, 4, 0}[int(workersRaw)%4]
		cfg := DefaultConfig()
		cfg.Workers = workers
		art, err := cfg.Run(d)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("seed=%d workers=%d", scfg.Seed, workers)
		requireReadPathsAgree(t, label, art.Trust)

		// Grow the dataset touching a prefix of the categories and fold
		// the growth in incrementally: every read path must still match
		// the dense evaluation on the updated artifacts.
		touched := int(touchedRaw) % (d.NumCategories() + 1)
		newD := growFraction(t, d, touched)
		upd, err := cfg.Update(art, d, newD)
		if err != nil {
			t.Fatal(err)
		}
		requireReadPathsAgree(t, label+" after update touched="+fmt.Sprint(touched), upd.Trust)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Error(err)
	}
}

// TestValueIndexedRouting pins the Value routing heuristic on a hand-built
// matrix pair where the winner is known: a user with one interest among
// many categories takes the indexed path, and a user with affinity
// everywhere takes the dense dot — both returning the same cells.
func TestValueIndexedRouting(t *testing.T) {
	const users, cats = 40, 24
	a := mat.NewDense(users, cats)
	e := mat.NewDense(users, cats)
	for u := 0; u < users; u++ {
		if u == 0 {
			a.Set(u, 3, 1) // narrow: one interest, routes indexed
		} else {
			for c := 0; c < cats; c++ {
				a.Set(u, c, 1/float64(cats)) // broad: routes dense
			}
		}
		e.Set(u, (u*7)%cats, float64(u%5)/5+0.1)
	}
	dt, err := NewDerivedTrust(a, e)
	if err != nil {
		t.Fatal(err)
	}
	if nnz := dt.affinityNNZ[0]; nnz != 1 {
		t.Fatalf("affinityNNZ[0] = %d, want 1", nnz)
	}
	for _, i := range []ratings.UserID{0, 1} {
		for j := 0; j < users; j++ {
			want := mat.Dot(a.Row(int(i)), e.Row(j)) / dt.rowSum[i]
			if got := dt.Value(i, ratings.UserID(j)); got != want {
				t.Errorf("Value(%d, %d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

// TestRankRowScratchMatchesRankRow asserts the scratch-taking variant is
// the same selection, and that a capacity-k scratch leaves the returned
// []Ranked as the only allocation.
func TestRankRowScratchMatchesRankRow(t *testing.T) {
	row := []float64{0.3, 0, 0.9, 0.3, 0.1, 0, 0.9, 0.2}
	want := RankRow(row, 4)
	scratch := make([]int, 0, 4)
	got := RankRowScratch(row, 4, scratch)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("RankRowScratch[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		RankRowScratch(row, 4, scratch)
	})
	if allocs > 1 {
		t.Errorf("RankRowScratch with scratch allocated %.1f times per run, want <= 1", allocs)
	}
}
