package core

import (
	"math"
	"testing"
	"testing/quick"

	"weboftrust/internal/mat"
	"weboftrust/internal/ratings"
	"weboftrust/internal/stats"
)

// buildAE constructs small A and E matrices directly:
//
//	3 users, 2 categories
//	A: u0 = (1, 0.5), u1 = (0, 1), u2 = (0, 0)   (u2 has no affinity)
//	E: u0 = (0, 0),   u1 = (0.8, 0.2), u2 = (0, 0.9)
func buildAE(t *testing.T) *DerivedTrust {
	t.Helper()
	a := mat.NewDense(3, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 0.5)
	a.Set(1, 1, 1)
	e := mat.NewDense(3, 2)
	e.Set(1, 0, 0.8)
	e.Set(1, 1, 0.2)
	e.Set(2, 1, 0.9)
	dt, err := NewDerivedTrust(a, e)
	if err != nil {
		t.Fatal(err)
	}
	return dt
}

func TestValueEquation5(t *testing.T) {
	dt := buildAE(t)
	// T̂_01 = (1*0.8 + 0.5*0.2) / 1.5 = 0.9/1.5 = 0.6
	if got := dt.Value(0, 1); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("T̂_01 = %v, want 0.6", got)
	}
	// T̂_02 = (0.5*0.9)/1.5 = 0.3
	if got := dt.Value(0, 2); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("T̂_02 = %v, want 0.3", got)
	}
	// T̂_12 = (1*0.9)/1 = 0.9
	if got := dt.Value(1, 2); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("T̂_12 = %v, want 0.9", got)
	}
	// No affinity -> 0 regardless of target expertise.
	if got := dt.Value(2, 1); got != 0 {
		t.Errorf("T̂_21 = %v, want 0 (no affinity)", got)
	}
	// No expertise overlap -> 0.
	if got := dt.Value(1, 0); got != 0 {
		t.Errorf("T̂_10 = %v, want 0 (target has no expertise)", got)
	}
}

func TestRowMatchesValue(t *testing.T) {
	dt := buildAE(t)
	for i := 0; i < 3; i++ {
		row := dt.Row(ratings.UserID(i), nil)
		for j := 0; j < 3; j++ {
			if math.Abs(row[j]-dt.Value(ratings.UserID(i), ratings.UserID(j))) > 1e-12 {
				t.Errorf("Row(%d)[%d] = %v != Value = %v", i, j, row[j], dt.Value(ratings.UserID(i), ratings.UserID(j)))
			}
		}
	}
	// Reuse destination.
	dst := make([]float64, 3)
	out := dt.Row(0, dst)
	if &out[0] != &dst[0] {
		t.Error("Row did not reuse dst")
	}
}

func TestRowBadDstPanics(t *testing.T) {
	dt := buildAE(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	dt.Row(0, make([]float64, 2))
}

func TestNewDerivedTrustShapeMismatch(t *testing.T) {
	if _, err := NewDerivedTrust(mat.NewDense(2, 2), mat.NewDense(3, 2)); err == nil {
		t.Error("expected shape error")
	}
	if _, err := NewDerivedTrust(mat.NewDense(2, 2), mat.NewDense(2, 3)); err == nil {
		t.Error("expected shape error")
	}
}

func TestRowSupport(t *testing.T) {
	dt := buildAE(t)
	// u0 has affinity in both categories; experts: u1 (cat 0 and 1), u2
	// (cat 1). Support excludes self, so {u1, u2} -> 2.
	if got := dt.RowSupport(0); got != 2 {
		t.Errorf("RowSupport(0) = %d, want 2", got)
	}
	// u1 has affinity only in cat 1; experts there: u1 (self, excluded),
	// u2 -> 1.
	if got := dt.RowSupport(1); got != 1 {
		t.Errorf("RowSupport(1) = %d, want 1", got)
	}
	if got := dt.RowSupport(2); got != 0 {
		t.Errorf("RowSupport(2) = %d, want 0", got)
	}
	if got := dt.TotalSupport(); got != 3 {
		t.Errorf("TotalSupport = %d, want 3", got)
	}
}

func TestTopTrusted(t *testing.T) {
	dt := buildAE(t)
	top := dt.TopTrusted(0, 5)
	if len(top) != 2 {
		t.Fatalf("len = %d, want 2 (zero scores excluded)", len(top))
	}
	if top[0].User != 1 || math.Abs(top[0].Score-0.6) > 1e-12 {
		t.Errorf("top[0] = %+v, want user 1 score 0.6", top[0])
	}
	if top[1].User != 2 || math.Abs(top[1].Score-0.3) > 1e-12 {
		t.Errorf("top[1] = %+v, want user 2 score 0.3", top[1])
	}
	if got := dt.TopTrusted(2, 3); len(got) != 0 {
		t.Errorf("user with no affinity should trust nobody, got %v", got)
	}
}

// TestRankRowDropsZeros pins RankRow's order and its zero rule: score
// descending, and zero scores never ranked, even when k exceeds the
// positive entries.
func TestRankRowDropsZeros(t *testing.T) {
	row := []float64{0, 5, 3, 0, 7}
	if got := RankRow(row, 2); len(got) != 2 || got[0].User != 4 || got[1].User != 1 {
		t.Errorf("RankRow(k=2) = %v, want users [4 1]", got)
	}
	if got := RankRow(row, 10); len(got) != 3 {
		t.Errorf("RankRow(k=10) = %v, want the 3 positive entries", got)
	}
}

// Property: on random vectors with heavy ties and zeros, RankPosition
// places every positive-score user where the full leaderboard
// RankRow(vec, len(vec)) lists it, and every zero-score user behind it.
func TestRankPositionMatchesRankRowQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRand(seed)
		vec := make([]float64, 1+rng.IntN(60))
		for i := range vec {
			vec[i] = float64(rng.IntN(5)) / 4 // heavy ties, about a fifth zeros
		}
		board := RankRow(vec, len(vec))
		for place, r := range board {
			if got := RankPosition(vec, r.User); got != place+1 {
				t.Logf("seed %d: user %d is place %d, RankPosition %d", seed, r.User, place+1, got)
				return false
			}
		}
		for u, v := range vec {
			if v == 0 && RankPosition(vec, ratings.UserID(u)) <= len(board) {
				t.Logf("seed %d: zero-score user %d placed among the %d positive", seed, u, len(board))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAccessors(t *testing.T) {
	dt := buildAE(t)
	if dt.NumUsers() != 3 || dt.NumCategories() != 2 {
		t.Error("dims wrong")
	}
	if dt.Affinity() == nil || dt.Expertise() == nil {
		t.Error("accessors returned nil")
	}
}

// randomDT builds a random derived-trust instance.
func randomDT(seed uint64) *DerivedTrust {
	rng := stats.NewRand(seed)
	numU := 2 + rng.IntN(15)
	numC := 1 + rng.IntN(5)
	a := mat.NewDense(numU, numC)
	e := mat.NewDense(numU, numC)
	for u := 0; u < numU; u++ {
		for c := 0; c < numC; c++ {
			if rng.Float64() < 0.5 {
				a.Set(u, c, rng.Float64())
			}
			if rng.Float64() < 0.5 {
				e.Set(u, c, rng.Float64())
			}
		}
	}
	dt, err := NewDerivedTrust(a, e)
	if err != nil {
		panic(err)
	}
	return dt
}

// Property (eq. 5 bounds): T̂_ij ∈ [0,1] and lies between the min and max
// expertise of j over the categories i has affinity for.
func TestValueBoundsQuick(t *testing.T) {
	f := func(seed uint64) bool {
		dt := randomDT(seed)
		numU, numC := dt.NumUsers(), dt.NumCategories()
		for i := 0; i < numU; i++ {
			for j := 0; j < numU; j++ {
				v := dt.Value(ratings.UserID(i), ratings.UserID(j))
				if v < 0 || v > 1 {
					return false
				}
				if dt.rowSum[i] == 0 {
					if v != 0 {
						return false
					}
					continue
				}
				// Weighted average bound over supported categories.
				lo, hi := math.Inf(1), math.Inf(-1)
				for c := 0; c < numC; c++ {
					if dt.affinity.At(i, c) > 0 {
						ev := dt.expertise.At(j, c)
						if ev < lo {
							lo = ev
						}
						if ev > hi {
							hi = ev
						}
					}
				}
				if v < lo-1e-9 || v > hi+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: RowSparse computes the same row as Row, bit for bit — the
// serving layer ranks RowSparse output, so the route must never change a
// score.
func TestRowSparseMatchesRowQuick(t *testing.T) {
	f := func(seed uint64) bool {
		dt := randomDT(seed)
		numU := dt.NumUsers()
		dense := make([]float64, numU)
		sparse := make([]float64, numU)
		for i := 0; i < numU; i++ {
			dt.Row(ratings.UserID(i), dense)
			dt.RowSparse(ratings.UserID(i), sparse)
			for j := range dense {
				if dense[j] != sparse[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRowSparseEdgeCases(t *testing.T) {
	dt := buildAE(t)
	// No affinity -> zero row.
	row := dt.RowSparse(2, nil)
	for j, v := range row {
		if v != 0 {
			t.Errorf("RowSparse(no-affinity)[%d] = %v, want 0", j, v)
		}
	}
	// Reused dst must be fully overwritten.
	dst := []float64{9, 9, 9}
	dt.RowSparse(2, dst)
	for j, v := range dst {
		if v != 0 {
			t.Errorf("stale dst[%d] = %v not cleared", j, v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong dst length")
		}
	}()
	dt.RowSparse(0, make([]float64, 2))
}

// Property: RowSupport equals the number of positive off-diagonal entries
// of the computed row.
func TestRowSupportMatchesRowQuick(t *testing.T) {
	f := func(seed uint64) bool {
		dt := randomDT(seed)
		for i := 0; i < dt.NumUsers(); i++ {
			row := dt.Row(ratings.UserID(i), nil)
			count := 0
			for j, v := range row {
				if j != i && v > 0 {
					count++
				}
			}
			if count != dt.RowSupport(ratings.UserID(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
