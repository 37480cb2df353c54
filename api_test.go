package weboftrust_test

import (
	"reflect"
	"slices"
	"testing"

	"weboftrust"
	"weboftrust/internal/ratings"
	"weboftrust/internal/shard"
	"weboftrust/internal/synth"
)

func buildFixture(t *testing.T) *weboftrust.Dataset {
	t.Helper()
	b := ratings.NewBuilder()
	movies := b.AddCategory("movies")
	books := b.AddCategory("books")
	expert := b.AddUser("expert")     // writes good movie reviews
	bookworm := b.AddUser("bookworm") // writes book reviews
	fan := b.AddUser("fan")           // rates movies a lot

	for i := 0; i < 3; i++ {
		oid, err := b.AddObject(movies, "")
		if err != nil {
			t.Fatal(err)
		}
		rid, err := b.AddReview(expert, oid)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.AddRating(fan, rid, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	oid, err := b.AddObject(books, "")
	if err != nil {
		t.Fatal(err)
	}
	rid, err := b.AddReview(bookworm, oid)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddRating(fan, rid, 0.6); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

func TestDeriveAndQuery(t *testing.T) {
	d := buildFixture(t)
	model, err := weboftrust.Derive(d)
	if err != nil {
		t.Fatal(err)
	}
	// fan rates mostly movies; the movie expert must outrank the
	// bookworm in fan's derived trust.
	sExpert := model.Score(2, 0)
	sBook := model.Score(2, 1)
	if sExpert <= sBook {
		t.Errorf("Score(fan, expert) = %v should exceed Score(fan, bookworm) = %v", sExpert, sBook)
	}
	top := model.TopTrusted(2, 5)
	if len(top) == 0 || top[0].User != 0 {
		t.Errorf("TopTrusted(fan) = %+v, want expert first", top)
	}
	if e := model.Expertise(0); e[0] <= 0 || e[1] != 0 {
		t.Errorf("expert expertise = %v, want positive movies only", e)
	}
	if a := model.Affinity(2); a[0] <= a[1] {
		t.Errorf("fan affinity = %v, want movies dominant", a)
	}
	if q, ok := model.ReviewQuality(0); !ok || q != 1.0 {
		t.Errorf("ReviewQuality(0) = %v, %v; want 1.0", q, ok)
	}
	if _, ok := model.ReviewQuality(999); ok {
		t.Error("ReviewQuality of absent review should be !ok")
	}
	if rep, ok := model.RaterReputation(2, 0); !ok || rep <= 0 {
		t.Errorf("RaterReputation(fan, movies) = %v, %v", rep, ok)
	}
	if _, ok := model.RaterReputation(2, 99); ok {
		t.Error("RaterReputation of absent category should be !ok")
	}
	if model.Dataset() != d {
		t.Error("Dataset accessor wrong")
	}
	if model.Artifacts() == nil {
		t.Error("Artifacts accessor nil")
	}
}

func TestModelUpdateMatchesColdDerive(t *testing.T) {
	b := ratings.NewBuilder()
	movies := b.AddCategory("movies")
	expert := b.AddUser("expert")
	fan := b.AddUser("fan")
	for i := 0; i < 3; i++ {
		oid, err := b.AddObject(movies, "")
		if err != nil {
			t.Fatal(err)
		}
		rid, err := b.AddReview(expert, oid)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.AddRating(fan, rid, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	oldD := b.Snapshot()
	// A non-default option, to check Update keeps the derivation config.
	model, err := weboftrust.Derive(oldD, weboftrust.WithoutExperienceDiscount())
	if err != nil {
		t.Fatal(err)
	}

	// Grow: a brand-new category plus fresh activity in the old one.
	books := b.AddCategory("books")
	critic := b.AddUser("critic")
	oid, err := b.AddObject(books, "")
	if err != nil {
		t.Fatal(err)
	}
	rid, err := b.AddReview(critic, oid)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddRating(fan, rid, 0.8); err != nil {
		t.Fatal(err)
	}
	newD := b.Snapshot()

	updated, err := model.Update(newD)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := weboftrust.Derive(newD, weboftrust.WithoutExperienceDiscount())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < newD.NumUsers(); i++ {
		for j := 0; j < newD.NumUsers(); j++ {
			u, c := updated.Score(weboftrust.UserID(i), weboftrust.UserID(j)),
				cold.Score(weboftrust.UserID(i), weboftrust.UserID(j))
			if u != c {
				t.Fatalf("Score(%d,%d): updated %v != cold %v", i, j, u, c)
			}
		}
	}
	// The old model must still answer from the old dataset.
	if model.Dataset() != oldD || updated.Dataset() != newD {
		t.Error("Update disturbed dataset identity")
	}
}

func TestDeriveOptions(t *testing.T) {
	d := buildFixture(t)
	if _, err := weboftrust.Derive(d, weboftrust.WithRiggsIterations(0)); err == nil {
		t.Error("iterations 0 should be rejected")
	}
	if _, err := weboftrust.Derive(d, weboftrust.WithUnratedQuality(2)); err == nil {
		t.Error("unrated quality 2 should be rejected")
	}
	m1, err := weboftrust.Derive(d, weboftrust.WithoutExperienceDiscount())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := weboftrust.Derive(d)
	if err != nil {
		t.Fatal(err)
	}
	// Without the discount, the expert's three perfect reviews score a
	// full 1.0 expertise; with it, 0.75.
	if !(m1.Expertise(0)[0] > m2.Expertise(0)[0]) {
		t.Errorf("discount-free expertise %v should exceed discounted %v",
			m1.Expertise(0)[0], m2.Expertise(0)[0])
	}
	ro, err := weboftrust.Derive(d, weboftrust.WithAffinityRatingsOnly())
	if err != nil {
		t.Fatal(err)
	}
	wo, err := weboftrust.Derive(d, weboftrust.WithAffinityWritesOnly())
	if err != nil {
		t.Fatal(err)
	}
	// The fan only rates: writes-only affinity gives them nothing.
	if ro.Affinity(2)[0] <= 0 {
		t.Error("ratings-only affinity should be positive for the fan")
	}
	if wo.Affinity(2)[0] != 0 {
		t.Error("writes-only affinity should be zero for the fan")
	}
	if _, err := weboftrust.Derive(d, weboftrust.WithRiggsIterations(5)); err != nil {
		t.Errorf("valid option rejected: %v", err)
	}
}

func TestDeriveOnSyntheticCommunity(t *testing.T) {
	cfg := synth.Small()
	d, gt, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := weboftrust.Derive(d)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check: every derived score within [0,1].
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			s := model.Score(weboftrust.UserID(i), weboftrust.UserID(j))
			if s < 0 || s > 1 {
				t.Fatalf("Score(%d,%d) = %v out of range", i, j, s)
			}
		}
	}
	// Top Reviewers should be popular recommendation targets: at least
	// one of a random user's top-5 should be expertise-bearing.
	top := model.TopTrusted(0, 5)
	for _, r := range top {
		e := model.Expertise(r.User)
		positive := false
		for _, v := range e {
			if v > 0 {
				positive = true
			}
		}
		if !positive {
			t.Errorf("top-trusted %d has no expertise", r.User)
		}
	}
	_ = gt
}

// TestWebOfTrustFacade covers the graph-query surface: the web artifact
// exists, Neighbors mirrors it, and Propagate ranks over it for every
// algorithm.
func TestWebOfTrustFacade(t *testing.T) {
	cfg := synth.Small()
	cfg.Seed = 3
	d, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := weboftrust.Derive(d)
	if err != nil {
		t.Fatal(err)
	}
	web := model.WebOfTrust()
	if web == nil {
		t.Fatal("no web artifact")
	}
	if web.NumUsers() != d.NumUsers() {
		t.Fatalf("web has %d users, dataset %d", web.NumUsers(), d.NumUsers())
	}
	if web.NumEdges() == 0 {
		t.Fatal("web has no edges on a community with explicit trust")
	}
	withEdges := -1
	for u := 0; u < d.NumUsers(); u++ {
		nb := model.Neighbors(weboftrust.UserID(u))
		to, w := web.Neighbors(weboftrust.UserID(u))
		if len(nb) != len(to) {
			t.Fatalf("user %d: Neighbors %d, web row %d", u, len(nb), len(to))
		}
		for i := range nb {
			if int(nb[i].User) != int(to[i]) || nb[i].Score != w[i] {
				t.Fatalf("user %d edge %d mismatch", u, i)
			}
		}
		if len(nb) > 0 && withEdges < 0 {
			withEdges = u
		}
	}
	if withEdges < 0 {
		t.Fatal("no user has edges")
	}
	for _, algo := range []weboftrust.PropagationAlgo{
		weboftrust.PropagateAppleseed, weboftrust.PropagateMoleTrust, weboftrust.PropagateTidalTrust,
	} {
		ranked, err := model.Propagate(algo, weboftrust.UserID(withEdges), 10)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		for i := 1; i < len(ranked); i++ {
			if ranked[i].Score > ranked[i-1].Score {
				t.Fatalf("%s: ranking not descending at %d", algo, i)
			}
		}
		for _, r := range ranked {
			if int(r.User) == withEdges || r.Score <= 0 {
				t.Fatalf("%s: bad entry %+v", algo, r)
			}
		}
		// PropagateInto overwrites a dirty buffer completely.
		dst := make([]float64, d.NumUsers())
		for i := range dst {
			dst[i] = -99
		}
		if err := model.PropagateInto(algo, weboftrust.UserID(withEdges), dst); err != nil {
			t.Fatal(err)
		}
		for i, v := range dst {
			if v == -99 {
				t.Fatalf("%s: dst[%d] not overwritten", algo, i)
			}
		}
	}
	if _, err := model.Propagate(weboftrust.PropagationAlgo(9), 0, 5); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := model.Propagate(weboftrust.PropagateAppleseed, weboftrust.UserID(d.NumUsers()), 5); err == nil {
		t.Error("out-of-range source accepted")
	}
}

// TestParsePropagationAlgo pins the wire names.
func TestParsePropagationAlgo(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want weboftrust.PropagationAlgo
	}{
		{"appleseed", weboftrust.PropagateAppleseed},
		{"MoleTrust", weboftrust.PropagateMoleTrust},
		{"tidaltrust", weboftrust.PropagateTidalTrust},
	} {
		got, err := weboftrust.ParsePropagationAlgo(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePropagationAlgo(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != "" && tc.want.String() == "" {
			t.Errorf("missing String for %v", tc.want)
		}
	}
	if _, err := weboftrust.ParsePropagationAlgo("pagerank"); err == nil {
		t.Error("unknown name accepted")
	}
}

// TestWebPolicyOptions: the threshold option switches the artifact's
// policy, the cold-start option adds edges for uncalibrated users, and
// both validate their ranges.
func TestWebPolicyOptions(t *testing.T) {
	cfg := synth.Small()
	cfg.Seed = 5
	d, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := weboftrust.Derive(d)
	if err != nil {
		t.Fatal(err)
	}
	thresh, err := weboftrust.Derive(d, weboftrust.WithWebThreshold(0.4))
	if err != nil {
		t.Fatal(err)
	}
	if got := thresh.WebOfTrust().Policy().String(); got != "threshold(tau=0.4)" {
		t.Errorf("policy = %q", got)
	}
	cold, err := weboftrust.Derive(d, weboftrust.WithWebColdStartGenerosity(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if cold.WebOfTrust().NumEdges() < base.WebOfTrust().NumEdges() {
		t.Errorf("cold-start fallback lost edges: %d < %d",
			cold.WebOfTrust().NumEdges(), base.WebOfTrust().NumEdges())
	}
	// The policy does not enter the fingerprint: checkpoints stay
	// portable across it.
	if base.Fingerprint() != thresh.Fingerprint() || base.Fingerprint() != cold.Fingerprint() {
		t.Error("web policy leaked into the config fingerprint")
	}
	if _, err := weboftrust.Derive(d, weboftrust.WithWebThreshold(1.5)); err == nil {
		t.Error("tau out of range accepted")
	}
	if _, err := weboftrust.Derive(d, weboftrust.WithWebColdStartGenerosity(-0.1)); err == nil {
		t.Error("cold generosity out of range accepted")
	}
}

// TestUpdateMaintainsWeb: the facade Update chain carries the web along
// and matches a cold derive of the grown dataset.
func TestUpdateMaintainsWeb(t *testing.T) {
	d := buildFixture(t)
	model, err := weboftrust.Derive(d)
	if err != nil {
		t.Fatal(err)
	}
	b := ratings.NewBuilderFrom(d)
	critic := b.AddUser("critic")
	oid, err := b.AddObject(0, "")
	if err != nil {
		t.Fatal(err)
	}
	rid, err := b.AddReview(critic, oid)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddRating(0, rid, 0.8); err != nil {
		t.Fatal(err)
	}
	if err := b.AddTrust(0, critic); err != nil {
		t.Fatal(err)
	}
	grown := b.Snapshot()
	upd, err := model.Update(grown)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := weboftrust.Derive(grown)
	if err != nil {
		t.Fatal(err)
	}
	uw, cw := upd.WebOfTrust(), cold.WebOfTrust()
	if uw.NumEdges() != cw.NumEdges() {
		t.Fatalf("updated web %d edges, cold %d", uw.NumEdges(), cw.NumEdges())
	}
	for u := 0; u < grown.NumUsers(); u++ {
		ut, uwts := uw.Neighbors(weboftrust.UserID(u))
		ct, cwts := cw.Neighbors(weboftrust.UserID(u))
		if len(ut) != len(ct) {
			t.Fatalf("user %d rows differ", u)
		}
		for i := range ut {
			if ut[i] != ct[i] || uwts[i] != cwts[i] {
				t.Fatalf("user %d edge %d differs", u, i)
			}
		}
	}
}

// TestShardedDeriveKeepsFullModel pins sharding as a serving filter: for
// N ∈ {2, 3}, every shard's model holds the same A, E, Riggs results,
// graph and generosity as the unsharded model, and Owns follows the
// spec, the shards' owned sets partitioning the community.
func TestShardedDeriveKeepsFullModel(t *testing.T) {
	d, _, err := synth.Generate(synth.Small())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := weboftrust.Derive(d)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Artifacts()
	for _, count := range []int{2, 3} {
		owners := make([]int, d.NumUsers())
		for idx := 0; idx < count; idx++ {
			m, err := weboftrust.Derive(d, weboftrust.WithShard(idx, count))
			if err != nil {
				t.Fatal(err)
			}
			got := m.Artifacts()
			if !got.Affinity.Equal(want.Affinity, 0) || !got.Expertise.Equal(want.Expertise, 0) {
				t.Fatalf("shard %d/%d: A or E differs from the unsharded model", idx, count)
			}
			if !reflect.DeepEqual(got.RiggsResults, want.RiggsResults) {
				t.Fatalf("shard %d/%d: Riggs results differ", idx, count)
			}
			if !slices.Equal(got.Web.GenerosityVector(), want.Web.GenerosityVector()) ||
				got.Web.NumEdges() != want.Web.NumEdges() {
				t.Fatalf("shard %d/%d: generosity or edge count differs", idx, count)
			}
			for u := 0; u < d.NumUsers(); u++ {
				gt, gw := got.Web.Graph().Out(u)
				wt, ww := want.Web.Graph().Out(u)
				if !slices.Equal(gt, wt) || !slices.Equal(gw, ww) {
					t.Fatalf("shard %d/%d: graph row %d differs", idx, count, u)
				}
				if m.Owns(weboftrust.UserID(u)) != (shard.Owner(u, count) == idx) {
					t.Fatalf("shard %d/%d: Owns(%d) does not follow the spec", idx, count, u)
				}
				if m.Owns(weboftrust.UserID(u)) {
					owners[u]++
				}
			}
		}
		for u, n := range owners {
			if n != 1 {
				t.Fatalf("count %d: user %d owned by %d shards", count, u, n)
			}
		}
	}
}
