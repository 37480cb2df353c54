package core

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"weboftrust/internal/ratings"
	"weboftrust/internal/stats"
)

// websEqual asserts two webs are bitwise identical: policy, generosity
// vector, every edge row (ids and weights) and the CSR graph shape.
func websEqual(t *testing.T, want, got *Web) {
	t.Helper()
	if want.Policy() != got.Policy() {
		t.Fatalf("policy: want %v, got %v", want.Policy(), got.Policy())
	}
	if want.NumUsers() != got.NumUsers() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("shape: want %d users / %d edges, got %d / %d",
			want.NumUsers(), want.NumEdges(), got.NumUsers(), got.NumEdges())
	}
	for u := 0; u < want.NumUsers(); u++ {
		uid := ratings.UserID(u)
		if want.Generosity(uid) != got.Generosity(uid) {
			t.Fatalf("generosity[%d]: want %v, got %v", u, want.Generosity(uid), got.Generosity(uid))
		}
		wTo, wW := want.Neighbors(uid)
		gTo, gW := got.Neighbors(uid)
		if len(wTo) != len(gTo) {
			t.Fatalf("row %d: want %d edges, got %d", u, len(wTo), len(gTo))
		}
		for i := range wTo {
			if wTo[i] != gTo[i] || wW[i] != gW[i] {
				t.Fatalf("row %d edge %d: want (%d, %v), got (%d, %v)",
					u, i, wTo[i], wW[i], gTo[i], gW[i])
			}
		}
	}
}

// sameRow reports whether two webs hold the same edges for user u.
func sameRow(a, b *Web, u ratings.UserID) bool {
	at, aw := a.Neighbors(u)
	bt, bw := b.Neighbors(u)
	return slices.Equal(at, bt) && slices.Equal(aw, bw)
}

// TestWebStoresEdgesOnce pins that the CSR graph is the web's only copy
// of its edges: after Run and after Update, Neighbors(u) returns the very
// slices Graph().Out(u) does, for every user.
func TestWebStoresEdgesOnce(t *testing.T) {
	d := synthDataset(t)
	cfg := DefaultConfig()
	art, err := cfg.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	newD := growFraction(t, d, 2)
	upd, err := cfg.Update(art, d, newD)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		label string
		web   *Web
	}{{"run", art.Web}, {"update", upd.Web}} {
		aliased := 0
		for u := 0; u < tc.web.NumUsers(); u++ {
			to, w := tc.web.Neighbors(ratings.UserID(u))
			gt, gw := tc.web.Graph().Out(u)
			if len(to) != len(gt) || len(w) != len(gw) {
				t.Fatalf("%s: user %d has %d neighbors, graph row %d", tc.label, u, len(to), len(gt))
			}
			if len(to) == 0 {
				continue
			}
			if &to[0] != &gt[0] || &w[0] != &gw[0] {
				t.Fatalf("%s: user %d's neighbors are a copy, not the graph's row", tc.label, u)
			}
			aliased++
		}
		if aliased == 0 {
			t.Fatalf("%s: no user has edges; the aliasing check is vacuous", tc.label)
		}
	}
}

// TestWebMatchesBinarize pins the artifact to the paper's protocol: the
// web's edge support equals BinarizeDerived's prediction matrix, and each
// edge carries exactly the T̂ value eq. 5 produces for that cell.
func TestWebMatchesBinarize(t *testing.T) {
	d := buildCommunity(t)
	art, err := DefaultConfig().Run(d)
	if err != nil {
		t.Fatal(err)
	}
	web := art.Web
	if web == nil {
		t.Fatal("Run produced no web artifact")
	}
	k := Generosity(d)
	pred, err := BinarizeDerived(art.Trust, k)
	if err != nil {
		t.Fatal(err)
	}
	if web.NumEdges() != pred.NNZ() {
		t.Fatalf("web has %d edges, binarised matrix %d", web.NumEdges(), pred.NNZ())
	}
	for u := 0; u < d.NumUsers(); u++ {
		uid := ratings.UserID(u)
		if web.Generosity(uid) != k[u] {
			t.Errorf("generosity[%d] = %v, want %v", u, web.Generosity(uid), k[u])
		}
		cols, _ := pred.Row(u)
		to, w := web.Neighbors(uid)
		if len(cols) != len(to) {
			t.Fatalf("row %d: web %d edges, matrix %d", u, len(to), len(cols))
		}
		for i := range cols {
			if cols[i] != to[i] {
				t.Fatalf("row %d edge %d: web %d, matrix %d", u, i, to[i], cols[i])
			}
			if want := art.Trust.Value(uid, ratings.UserID(to[i])); w[i] != want {
				t.Fatalf("weight[%d][%d] = %v, want T̂ value %v", u, to[i], w[i], want)
			}
		}
	}
	// The CSR graph agrees with the rows it was packed from.
	g := web.Graph()
	if g.NumNodes() != d.NumUsers() || g.NumEdges() != web.NumEdges() {
		t.Fatalf("graph shape %d/%d, want %d/%d", g.NumNodes(), g.NumEdges(), d.NumUsers(), web.NumEdges())
	}
}

// TestWebThresholdPolicy pins the GlobalThreshold policy to its
// binarisation and checks policy validation.
func TestWebThresholdPolicy(t *testing.T) {
	d := buildCommunity(t)
	cfg := DefaultConfig()
	cfg.Web = WebPolicy{Policy: GlobalThreshold, Tau: 0.5}
	art, err := cfg.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Binarize(art.Trust, cfg.Web, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if art.Web.NumEdges() != pred.NNZ() {
		t.Fatalf("web has %d edges, threshold matrix %d", art.Web.NumEdges(), pred.NNZ())
	}
	for u := 0; u < d.NumUsers(); u++ {
		to, _ := art.Web.Neighbors(ratings.UserID(u))
		cols, _ := pred.Row(u)
		for i := range cols {
			if cols[i] != to[i] {
				t.Fatalf("row %d edge %d differs", u, i)
			}
		}
	}
	if _, err := BuildWeb(d, art.Trust, WebPolicy{Policy: BinarizePolicy(9)}, 0); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := BuildWeb(d, art.Trust, WebPolicy{Policy: PerUserTopK, ColdGenerosity: 1.5}, 0); err == nil {
		t.Error("out-of-range cold generosity accepted")
	}
}

// TestWebColdGenerosity: users whose history cannot calibrate a k_i get
// the fallback and therefore out-edges, while calibrated users are
// unchanged.
func TestWebColdGenerosity(t *testing.T) {
	d := buildCommunity(t)
	cfg := DefaultConfig()
	art, err := cfg.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := BuildWeb(d, art.Trust, WebPolicy{Policy: PerUserTopK, ColdGenerosity: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := art.Web
	foundCold := false
	for u := 0; u < d.NumUsers(); u++ {
		uid := ratings.UserID(u)
		if base.Generosity(uid) > 0 {
			if cold.Generosity(uid) != base.Generosity(uid) {
				t.Fatalf("calibrated user %d generosity changed", u)
			}
			continue
		}
		foundCold = true
		if cold.Generosity(uid) != 1 {
			t.Fatalf("cold user %d generosity = %v, want fallback 1", u, cold.Generosity(uid))
		}
		if baseTo, _ := base.Neighbors(uid); len(baseTo) != 0 {
			t.Fatalf("cold user %d has edges without fallback", u)
		}
	}
	if !foundCold {
		t.Skip("community has no cold users; fixture changed")
	}
	if cold.NumEdges() <= base.NumEdges() {
		t.Errorf("fallback did not add edges: %d vs %d", cold.NumEdges(), base.NumEdges())
	}
}

// TestGraphUpdateEqualsFreshDerive: after random dataset growth, the
// incrementally maintained web — dirty rows recomputed, every other row
// copied — is bitwise identical to a from-scratch derive at every
// worker-count combination, and every untouched user is unmarked in
// DirtyUsers with their old row and generosity.
func TestGraphUpdateEqualsFreshDerive(t *testing.T) {
	property := func(seed uint64) bool {
		oldD := randomGrowableDataset(seed)
		newD, _ := growDataset(oldD, seed^0xbeef)
		for _, wOld := range []int{1, 3} {
			for _, wNew := range []int{1, 2, 0} {
				cfg := DefaultConfig()
				cfg.Workers = wOld
				oldArt, err := cfg.Run(oldD)
				if err != nil {
					t.Logf("seed %d: run: %v", seed, err)
					return false
				}
				cfg.Workers = wNew
				upd, err := cfg.Update(oldArt, oldD, newD)
				if err != nil {
					t.Logf("seed %d: update: %v", seed, err)
					return false
				}
				fresh, err := cfg.Run(newD)
				if err != nil {
					t.Logf("seed %d: fresh run: %v", seed, err)
					return false
				}
				websEqual(t, fresh.Web, upd.Web)

				// Row reuse for every untouched user: recompute the dirty
				// set the way the update did and require every user outside
				// it to be unmarked, with the old row and generosity.
				touched := make([]bool, newD.NumCategories())
				for c := oldD.NumCategories(); c < newD.NumCategories(); c++ {
					touched[c] = true
				}
				for r := oldD.NumReviews(); r < newD.NumReviews(); r++ {
					touched[newD.Review(ratings.ReviewID(r)).Category] = true
				}
				for _, rt := range newD.Ratings()[oldD.NumRatings():] {
					touched[newD.Review(rt.Review).Category] = true
				}
				dirty := dirtyUsers(oldD, newD, touched, upd.Affinity)
				marked := upd.Web.DirtyUsers()
				for u := 0; u < oldD.NumUsers(); u++ {
					if dirty[u] {
						continue
					}
					if marked[u] {
						t.Logf("seed %d: untouched user %d marked dirty", seed, u)
						return false
					}
					if !sameRow(oldArt.Web, upd.Web, ratings.UserID(u)) {
						t.Logf("seed %d: untouched user %d row changed", seed, u)
						return false
					}
					if oldArt.Web.Generosity(ratings.UserID(u)) != upd.Web.Generosity(ratings.UserID(u)) {
						t.Logf("seed %d: untouched user %d generosity changed", seed, u)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// buildSplitCommunity creates two disjoint sub-communities (categories
// "alpha" and "beta", three users each, activity strictly within their
// own category) and returns the dataset plus the beta reviews. Growth
// confined to alpha leaves the beta users' every web input untouched, so
// an update must leave them unmarked in DirtyUsers.
func buildSplitCommunity(t *testing.T) (*ratings.Dataset, []ratings.ReviewID) {
	t.Helper()
	b := ratings.NewBuilder()
	b.AddCategory("alpha")
	b.AddCategory("beta")
	users := make([]ratings.UserID, 6)
	for i := range users {
		users[i] = b.AddUser("")
	}
	var alphaReviews, betaReviews []ratings.ReviewID
	for cat := 0; cat < 2; cat++ {
		base := cat * 3 // users 0-2 live in alpha, 3-5 in beta
		for w := 0; w < 3; w++ {
			oid, err := b.AddObject(ratings.CategoryID(cat), "")
			if err != nil {
				t.Fatal(err)
			}
			rid, err := b.AddReview(users[base+w], oid)
			if err != nil {
				t.Fatal(err)
			}
			if cat == 0 {
				alphaReviews = append(alphaReviews, rid)
			} else {
				betaReviews = append(betaReviews, rid)
			}
			for r := 0; r < 3; r++ {
				if r == w {
					continue // no self-rating
				}
				if err := b.AddRating(users[base+r], rid, ratings.QuantizeRating(float64(1+((w+r)%5))/5)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := b.AddTrust(users[base], users[base+1]); err != nil {
			t.Fatal(err)
		}
	}
	_ = alphaReviews
	return b.Build(), betaReviews
}

// growAlpha rebuilds d plus fresh alpha-only activity: a new user who
// writes and gets rated in alpha. The beta community is untouched.
func growAlpha(d *ratings.Dataset, round int) *ratings.Dataset {
	b := ratings.NewBuilderFrom(d)
	nu := b.AddUser("")
	oid, err := b.AddObject(0, "")
	if err != nil {
		panic(err)
	}
	rid, err := b.AddReview(nu, oid)
	if err != nil {
		panic(err)
	}
	if err := b.AddRating(0, rid, ratings.QuantizeRating(float64(1+round%5)/5)); err != nil {
		panic(err)
	}
	return b.Snapshot()
}

// TestWebUpdateChain folds several alpha-only growth rounds through
// Update and pins the final web against a fresh derive, asserting that
// the untouched beta users are unmarked in DirtyUsers at every round.
func TestWebUpdateChain(t *testing.T) {
	d, _ := buildSplitCommunity(t)
	cfg := DefaultConfig()
	art, err := cfg.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		newD := growAlpha(d, round)
		upd, err := cfg.Update(art, d, newD)
		if err != nil {
			t.Fatal(err)
		}
		marked := upd.Web.DirtyUsers()
		for u := 3; u < 6; u++ { // beta users
			if marked[u] {
				t.Fatalf("round %d: untouched beta user %d marked dirty", round, u)
			}
		}
		d, art = newD, upd
	}
	fresh, err := cfg.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	websEqual(t, fresh.Web, art.Web)
	// Sanity: beta users actually have edges, so the reuse is not vacuous.
	if to, _ := art.Web.Neighbors(3); len(to) == 0 {
		t.Error("beta user 3 has no edges; the reuse assertion is vacuous")
	}
}

// TestBinarizeUnifiedEntry checks the policy dispatch and validation of
// the unified Binarize entry point the legacy helpers delegate to.
func TestBinarizeUnifiedEntry(t *testing.T) {
	d := buildCommunity(t)
	art, err := DefaultConfig().Run(d)
	if err != nil {
		t.Fatal(err)
	}
	k := Generosity(d)
	for _, workers := range []int{1, 2, 0} {
		uni, err := Binarize(art.Trust, WebPolicy{Policy: PerUserTopK}, k, workers)
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := BinarizeDerived(art.Trust, k)
		if err != nil {
			t.Fatal(err)
		}
		if uni.NNZ() != legacy.NNZ() {
			t.Fatalf("workers=%d: unified %d nnz, legacy %d", workers, uni.NNZ(), legacy.NNZ())
		}
		for u := 0; u < d.NumUsers(); u++ {
			a, _ := uni.Row(u)
			b, _ := legacy.Row(u)
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("workers=%d row %d: %v vs %v", workers, u, a, b)
			}
		}
	}
	if _, err := Binarize(art.Trust, WebPolicy{Policy: PerUserTopK}, nil, 0); err == nil {
		t.Error("missing generosity accepted for per-user top-k")
	}
	if _, err := Binarize(art.Trust, WebPolicy{Policy: BinarizePolicy(7)}, nil, 0); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestPolicyRowMatchesTopKOracle pins the threshold-based selection in
// policyRowInto against a plain sort as an independent oracle: for random
// derived matrices and generosities, the selected set must be exactly
// the top-take of the row sorted by value descending, ties toward the
// smaller index, emitted ascending with the row's own weights. This is
// the one test of the selection that does not route through the code
// under test on both sides.
func TestPolicyRowMatchesTopKOracle(t *testing.T) {
	f := func(seed uint64) bool {
		dt := randomDT(seed)
		rng := stats.NewRand(seed ^ 0x517a)
		numU := dt.NumUsers()
		sc := newSelectScratch(numU)
		oracle := make([]float64, numU)
		for i := 0; i < numU; i++ {
			k := rng.Float64()
			got := policyRowInto(dt, ratings.UserID(i), WebPolicy{Policy: PerUserTopK}, k, sc, true)

			dt.RowSparse(ratings.UserID(i), oracle)
			oracle[i] = 0
			candidates := 0
			for _, v := range oracle {
				if v > 0 {
					candidates++
				}
			}
			take := topCount(k, candidates)
			// A stable sort of ascending ids by value descending breaks
			// ties toward the smaller id.
			order := make([]int, numU)
			for j := range order {
				order[j] = j
			}
			slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(oracle[b], oracle[a]) })
			wantIDs := order[:take]
			slices.Sort(wantIDs)
			if len(got.To) != len(wantIDs) {
				t.Logf("seed %d user %d: %d selected, oracle %d", seed, i, len(got.To), len(wantIDs))
				return false
			}
			for n, j := range wantIDs {
				if int(got.To[n]) != j || got.W[n] != oracle[j] {
					t.Logf("seed %d user %d slot %d: got (%d, %v), oracle (%d, %v)",
						seed, i, n, got.To[n], got.W[n], j, oracle[j])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
