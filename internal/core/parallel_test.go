package core

import (
	"fmt"
	"testing"

	"weboftrust/internal/ratings"
	"weboftrust/internal/riggs"
	"weboftrust/internal/synth"
)

// synthDataset generates the shared Small synthetic community the
// parallel-equivalence tests run on: rich enough (4 categories, 300
// users, skewed activity) that scheduling differences would surface.
func synthDataset(t *testing.T) *ratings.Dataset {
	t.Helper()
	d, _, err := synth.Generate(synth.Small())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// requireSameRiggs asserts two category results are bitwise identical.
func requireSameRiggs(t *testing.T, label string, a, b *riggs.CategoryResult) {
	t.Helper()
	if a == b {
		return
	}
	if a.Category != b.Category || a.Iterations != b.Iterations || a.Converged != b.Converged {
		t.Fatalf("%s: result metadata differs", label)
	}
	if len(a.Quality) != len(b.Quality) || len(a.RaterRep) != len(b.RaterRep) {
		t.Fatalf("%s: result shapes differ", label)
	}
	for k := range a.Quality {
		if a.Reviews[k] != b.Reviews[k] || a.Quality[k] != b.Quality[k] {
			t.Fatalf("%s: quality[%d] %v != %v", label, k, a.Quality[k], b.Quality[k])
		}
	}
	for i := range a.RaterRep {
		if a.Raters[i] != b.Raters[i] || a.RaterRep[i] != b.RaterRep[i] || a.RaterCount[i] != b.RaterCount[i] {
			t.Fatalf("%s: rater %d differs", label, i)
		}
	}
}

// requireSameArtifacts asserts every artifact of b is bitwise identical to
// a: Riggs results, E, A, and every derived-trust row (via both the dense
// and sparse evaluators, which also covers rowSum and the expert lists).
func requireSameArtifacts(t *testing.T, label string, a, b *Artifacts, d *ratings.Dataset) {
	t.Helper()
	if len(a.RiggsResults) != len(b.RiggsResults) {
		t.Fatalf("%s: riggs result counts differ", label)
	}
	for c := range a.RiggsResults {
		requireSameRiggs(t, fmt.Sprintf("%s: category %d", label, c), a.RiggsResults[c], b.RiggsResults[c])
	}
	if a.Expertise.MaxAbsDiff(b.Expertise) != 0 {
		t.Fatalf("%s: expertise differs", label)
	}
	if a.Affinity.MaxAbsDiff(b.Affinity) != 0 {
		t.Fatalf("%s: affinity differs", label)
	}
	numU := d.NumUsers()
	rowA := make([]float64, numU)
	rowB := make([]float64, numU)
	for u := 0; u < numU; u += 7 {
		a.Trust.Row(ratings.UserID(u), rowA)
		b.Trust.Row(ratings.UserID(u), rowB)
		for j := range rowA {
			if rowA[j] != rowB[j] {
				t.Fatalf("%s: T̂[%d][%d] %v != %v", label, u, j, rowA[j], rowB[j])
			}
		}
		b.Trust.RowSparse(ratings.UserID(u), rowB)
		for j := range rowA {
			if rowA[j] != rowB[j] {
				t.Fatalf("%s: sparse T̂[%d][%d] %v != %v", label, u, j, rowA[j], rowB[j])
			}
		}
		if a.Trust.RowSupport(ratings.UserID(u)) != b.Trust.RowSupport(ratings.UserID(u)) {
			t.Fatalf("%s: row support differs for user %d", label, u)
		}
	}
}

// TestRunParallelEqualsSerial is the tentpole's determinism property: the
// full pipeline produces bitwise-identical artifacts at any worker count.
// Run under -race this also exercises every parallel stage for data races.
func TestRunParallelEqualsSerial(t *testing.T) {
	d := synthDataset(t)
	cfg := DefaultConfig()
	cfg.Workers = 1
	serial, err := cfg.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 8} {
		cfg.Workers = workers
		parallel, err := cfg.Run(d)
		if err != nil {
			t.Fatal(err)
		}
		requireSameArtifacts(t, fmt.Sprintf("workers=%d", workers), serial, parallel, d)
	}
}

// growFraction extends d with one new user writing a rated review in each
// of the first touchedCats categories, returning the grown dataset.
func growFraction(t *testing.T, d *ratings.Dataset, touchedCats int) *ratings.Dataset {
	t.Helper()
	b := ratings.NewBuilder()
	for c := 0; c < d.NumCategories(); c++ {
		b.AddCategory(d.CategoryName(ratings.CategoryID(c)))
	}
	for u := 0; u < d.NumUsers(); u++ {
		b.AddUser(d.UserName(ratings.UserID(u)))
	}
	for o := 0; o < d.NumObjects(); o++ {
		obj := d.Object(ratings.ObjectID(o))
		if _, err := b.AddObject(obj.Category, obj.Name); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < d.NumReviews(); r++ {
		rev := d.Review(ratings.ReviewID(r))
		if _, err := b.AddReview(rev.Writer, rev.Object); err != nil {
			t.Fatal(err)
		}
	}
	for _, rt := range d.Ratings() {
		if err := b.AddRating(rt.Rater, rt.Review, rt.Value); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range d.TrustEdges() {
		if err := b.AddTrust(e.From, e.To); err != nil {
			t.Fatal(err)
		}
	}
	writer := b.AddUser("grow-writer")
	rater := b.AddUser("grow-rater")
	for c := 0; c < touchedCats; c++ {
		oid, err := b.AddObject(ratings.CategoryID(c), "")
		if err != nil {
			t.Fatal(err)
		}
		rid, err := b.AddReview(writer, oid)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.AddRating(rater, rid, ratings.QuantizeRating(0.7)); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestUpdateEquivalenceTouchedFractions asserts that the reuse-heavy
// Update matches a from-scratch Run bitwise at several touched-category
// fractions (none, one, half, all) and at several worker counts.
func TestUpdateEquivalenceTouchedFractions(t *testing.T) {
	oldD := synthDataset(t)
	numC := oldD.NumCategories()
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		oldArt, err := cfg.Run(oldD)
		if err != nil {
			t.Fatal(err)
		}
		for _, touchedCats := range []int{0, 1, numC / 2, numC} {
			newD := growFraction(t, oldD, touchedCats)
			incremental, err := cfg.Update(oldArt, oldD, newD)
			if err != nil {
				t.Fatal(err)
			}
			full, err := cfg.Run(newD)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("workers=%d touched=%d/%d", workers, touchedCats, numC)
			requireSameArtifacts(t, label, full, incremental, newD)
			for c := 0; c < numC; c++ {
				reused := incremental.RiggsResults[c] == oldArt.RiggsResults[c]
				if c < touchedCats && reused {
					t.Errorf("%s: touched category %d not recomputed", label, c)
				}
				if c >= touchedCats && !reused {
					t.Errorf("%s: untouched category %d recomputed", label, c)
				}
			}
		}
	}
}

// TestUpdateChain walks several successive grow+update steps through one
// model chain, comparing against full recomputation at each step — the
// tailer's steady-state shape.
func TestUpdateChain(t *testing.T) {
	d := synthDataset(t)
	cfg := DefaultConfig()
	art, err := cfg.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	for step, touched := range []int{1, 2, 1, 3} {
		newD := growFraction(t, d, touched)
		next, err := cfg.Update(art, d, newD)
		if err != nil {
			t.Fatal(err)
		}
		full, err := cfg.Run(newD)
		if err != nil {
			t.Fatal(err)
		}
		requireSameArtifacts(t, fmt.Sprintf("step %d", step), full, next, newD)
		d, art = newD, next
	}
}
