package core

import (
	"math"
	"testing"
	"testing/quick"

	"weboftrust/internal/mat"
	"weboftrust/internal/ratings"
	"weboftrust/internal/stats"
)

// buildCommunity creates a small community with explicit trust so the
// generosity computation has ground truth to work from:
//
//	writers: w0 (movies expert), w1 (books expert)
//	raters:  r2 rates w0 twice and w1 once, trusts w0 only
//	         r3 rates w0 once, trusts nobody
func buildCommunity(t *testing.T) *ratings.Dataset {
	t.Helper()
	b := ratings.NewBuilder()
	movies := b.AddCategory("movies")
	books := b.AddCategory("books")
	w0 := b.AddUser("w0")
	w1 := b.AddUser("w1")
	r2 := b.AddUser("r2")
	r3 := b.AddUser("r3")

	var revs []ratings.ReviewID
	for _, spec := range []struct {
		writer ratings.UserID
		cat    ratings.CategoryID
	}{
		{w0, movies}, {w0, movies}, {w1, books},
	} {
		oid, err := b.AddObject(spec.cat, "")
		if err != nil {
			t.Fatal(err)
		}
		rid, err := b.AddReview(spec.writer, oid)
		if err != nil {
			t.Fatal(err)
		}
		revs = append(revs, rid)
	}
	for _, c := range []struct {
		rater ratings.UserID
		rev   ratings.ReviewID
		v     float64
	}{
		{r2, revs[0], 1.0}, {r2, revs[1], 0.8}, {r2, revs[2], 0.4},
		{r3, revs[0], 0.6},
	} {
		if err := b.AddRating(c.rater, c.rev, c.v); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddTrust(r2, w0); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

func TestGenerosity(t *testing.T) {
	d := buildCommunity(t)
	k := Generosity(d)
	// r2: 2 connections (w0, w1), trusts w0 -> 0.5.
	if math.Abs(k[2]-0.5) > 1e-12 {
		t.Errorf("k[r2] = %v, want 0.5", k[2])
	}
	// r3: 1 connection, no trust -> 0.
	if k[3] != 0 {
		t.Errorf("k[r3] = %v, want 0", k[3])
	}
	// Writers have no connections (they rated nothing).
	if k[0] != 0 || k[1] != 0 {
		t.Errorf("writers should have k=0, got %v, %v", k[0], k[1])
	}
}

func TestTopCount(t *testing.T) {
	cases := []struct {
		k    float64
		n    int
		want int
	}{
		{0, 10, 0},
		{0.5, 10, 5},
		{0.5, 9, 5},   // ceil(4.5)
		{0.01, 10, 1}, // any positive k selects at least 1
		{1, 10, 10},
		{2, 10, 10}, // clamped
		{0.3, 0, 0},
		{-1, 10, 0},
		{0.2, 5, 1}, // exactly 1.0 -> 1, not 2 (epsilon guard)
	}
	for _, c := range cases {
		if got := topCount(c.k, c.n); got != c.want {
			t.Errorf("topCount(%v, %d) = %d, want %d", c.k, c.n, got, c.want)
		}
	}
}

func TestBinarizeDerivedEndToEnd(t *testing.T) {
	d := buildCommunity(t)
	art, err := DefaultConfig().Run(d)
	if err != nil {
		t.Fatal(err)
	}
	k := Generosity(d)
	pred, err := BinarizeDerived(art.Trust, k)
	if err != nil {
		t.Fatal(err)
	}
	if r, c := pred.Dims(); r != 4 || c != 4 {
		t.Fatalf("pred dims = (%d,%d), want (4,4)", r, c)
	}
	// r2 has generosity 0.5; its derived candidates are the expert
	// writers. It must predict trust in w0 (movies expert, where r2 is
	// most active) rather than w1.
	if !pred.Has(2, 0) {
		t.Error("r2 should predict trust in w0")
	}
	// r3 has generosity 0 -> no predictions at all.
	if pred.RowNNZ(3) != 0 {
		t.Errorf("r3 predicted %d edges, want 0", pred.RowNNZ(3))
	}
	// Nobody predicts self-trust.
	for i := 0; i < 4; i++ {
		if pred.Has(i, i) {
			t.Errorf("self-trust predicted for user %d", i)
		}
	}
}

func TestBinarizeDerivedLengthMismatch(t *testing.T) {
	d := buildCommunity(t)
	art, err := DefaultConfig().Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BinarizeDerived(art.Trust, []float64{1}); err == nil {
		t.Error("expected error for generosity length mismatch")
	}
	if _, err := BinarizeSparse(BaselineMatrix(d), []float64{1}); err == nil {
		t.Error("expected error for generosity length mismatch")
	}
}

func TestBaselineMatrix(t *testing.T) {
	d := buildCommunity(t)
	bm := BaselineMatrix(d)
	// B[r2][w0] = (1.0 + 0.8)/2 = 0.9; B[r2][w1] = 0.4; B[r3][w0] = 0.6.
	if got := bm.At(2, 0); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("B[r2][w0] = %v, want 0.9", got)
	}
	if got := bm.At(2, 1); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("B[r2][w1] = %v, want 0.4", got)
	}
	if got := bm.At(3, 0); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("B[r3][w0] = %v, want 0.6", got)
	}
	if bm.NNZ() != 3 {
		t.Errorf("B nnz = %d, want 3", bm.NNZ())
	}
}

func TestBinarizeSparse(t *testing.T) {
	d := buildCommunity(t)
	bm := BaselineMatrix(d)
	k := Generosity(d)
	pred, err := BinarizeSparse(bm, k)
	if err != nil {
		t.Fatal(err)
	}
	// r2: 2 candidates, k=0.5 -> top 1 by value = w0 (0.9 > 0.4).
	if !pred.Has(2, 0) || pred.Has(2, 1) {
		t.Errorf("r2 baseline prediction wrong: row nnz=%d", pred.RowNNZ(2))
	}
	if pred.RowNNZ(3) != 0 {
		t.Error("r3 with k=0 should predict nothing")
	}
}

func TestBinarizeThresholdVariants(t *testing.T) {
	d := buildCommunity(t)
	art, err := DefaultConfig().Run(d)
	if err != nil {
		t.Fatal(err)
	}
	threshold := func(tau float64) *mat.CSR {
		m, err := Binarize(art.Trust, WebPolicy{Policy: GlobalThreshold, Tau: tau}, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	all := threshold(0.0000001)
	some := threshold(0.5)
	none := threshold(1.1)
	if all.NNZ() < some.NNZ() || some.NNZ() < none.NNZ() {
		t.Errorf("threshold monotonicity violated: %d, %d, %d", all.NNZ(), some.NNZ(), none.NNZ())
	}
	if none.NNZ() != 0 {
		t.Errorf("tau > 1 should predict nothing, got %d", none.NNZ())
	}
}

func TestBinarizePolicyString(t *testing.T) {
	if PerUserTopK.String() == "" || GlobalThreshold.String() == "" || BinarizePolicy(9).String() == "" {
		t.Error("policy names empty")
	}
}

// Property: for every user, the number of predicted edges is exactly
// topCount(k_i, candidates_i), predictions only land on positive-score
// candidates, and every predicted score >= every unpredicted candidate
// score (the selection is a true top-k).
func TestBinarizeDerivedSelectionQuick(t *testing.T) {
	f := func(seed uint64) bool {
		dt := randomDT(seed)
		rng := stats.NewRand(seed ^ 0xabc)
		numU := dt.NumUsers()
		k := make([]float64, numU)
		for i := range k {
			k[i] = rng.Float64()
		}
		pred, err := BinarizeDerived(dt, k)
		if err != nil {
			return false
		}
		row := make([]float64, numU)
		for i := 0; i < numU; i++ {
			dt.Row(ratings.UserID(i), row)
			row[i] = 0
			candidates := 0
			for _, v := range row {
				if v > 0 {
					candidates++
				}
			}
			want := topCount(k[i], candidates)
			if pred.RowNNZ(i) != want {
				return false
			}
			cols, _ := pred.Row(i)
			minSelected := math.Inf(1)
			selected := make(map[int32]bool, len(cols))
			for _, j := range cols {
				if row[j] <= 0 {
					return false
				}
				selected[j] = true
				if row[j] < minSelected {
					minSelected = row[j]
				}
			}
			for j, v := range row {
				if v > 0 && !selected[int32(j)] && v > minSelected {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: BinarizeSparse never predicts outside the score support and
// respects topCount sizes.
func TestBinarizeSparseQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRand(seed)
		numU := 2 + rng.IntN(12)
		b := mat.NewBuilder(numU, numU)
		for n := 0; n < rng.IntN(40); n++ {
			i, j := rng.IntN(numU), rng.IntN(numU)
			if i != j {
				b.Set(i, j, 0.2+0.8*rng.Float64())
			}
		}
		scores := b.Build()
		k := make([]float64, numU)
		for i := range k {
			k[i] = rng.Float64()
		}
		pred, err := BinarizeSparse(scores, k)
		if err != nil {
			return false
		}
		for i := 0; i < numU; i++ {
			if pred.RowNNZ(i) != topCount(k[i], scores.RowNNZ(i)) {
				return false
			}
			cols, _ := pred.Row(i)
			for _, j := range cols {
				if !scores.Has(i, int(j)) {
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
