package main

import (
	"bytes"
	"cmp"
	"os"
	"slices"
	"testing"

	"weboftrust/internal/ratings"
	"weboftrust/internal/store"
	"weboftrust/internal/synth"
)

func smallCommunity(t *testing.T) ([]byte, *community) {
	t.Helper()
	path, c, err := writeCommunity(synth.Small(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw, c
}

func TestCommunityDeterministic(t *testing.T) {
	a, _ := smallCommunity(t)
	b, _ := smallCommunity(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two runs wrote different event logs")
	}
}

func draw(s *hotStream, n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		kind, user := s.next()
		out = append(out, kind.path(user, 0))
	}
	return out
}

func TestHotSetFollowsActivity(t *testing.T) {
	activity := []float64{5, 1, 9, 5, 2, 30, 1}
	hs := pickHotSet(activity, []int{0, 1, 2, 3, 4, 6}, 4)
	// User 5 is the most active but not connected; 0 and 3 tie and keep id
	// order.
	if !slices.Equal(hs.users, []int{2, 0, 3, 4}) || !slices.Equal(hs.weights, []float64{9, 5, 5, 2}) {
		t.Fatalf("hot set %v weights %v", hs.users, hs.weights)
	}
}

func TestHotStreamsDeterministic(t *testing.T) {
	hot := hotSet{users: []int{5, 9, 14, 20, 33, 41, 57, 60}, weights: []float64{40, 20, 10, 10, 8, 6, 4, 2}}
	a := draw(newHotStream(1, 0, hot, hotMix), 500)
	if !slices.Equal(a, draw(newHotStream(1, 0, hot, hotMix), 500)) {
		t.Fatal("the same seed and client drew different sequences")
	}
	if slices.Equal(a, draw(newHotStream(1, 1, hot, hotMix), 500)) {
		t.Fatal("two clients drew the same sequence")
	}
	if slices.Equal(a, draw(newHotStream(2, 0, hot, hotMix), 500)) {
		t.Fatal("two seeds drew the same sequence")
	}
	kinds, sources := map[reqKind]int{}, map[int]int{}
	s := newHotStream(1, 0, hot, ingestMix)
	const n = 20000
	for i := 0; i < n; i++ {
		kind, user := s.next()
		kinds[kind]++
		sources[user]++
	}
	for _, e := range ingestMix {
		if got := float64(kinds[e.kind]) * 1000 / n; got < float64(e.share)*0.8 || got > float64(e.share)*1.2 {
			t.Errorf("%s drawn %.0f‰, want about %d‰", kindNames[e.kind], got, e.share)
		}
	}
	// Sources are drawn in proportion to their weights, which sum to 100.
	for i, u := range hot.users {
		if got := float64(sources[u]) * 100 / n; got < hot.weights[i]*0.8 || got > hot.weights[i]*1.2 {
			t.Errorf("source %d drawn %.1f%%, want about %g%%", u, got, hot.weights[i])
		}
	}
	if len(sources) != len(hot.users) {
		t.Errorf("drew %d distinct sources, want the %d of the hot set", len(sources), len(hot.users))
	}
}

func TestColdSourcesDistinct(t *testing.T) {
	connected := make([]int, 300)
	for i := range connected {
		connected[i] = 2 * i
	}
	perm := newColdPerm(7, connected)
	if !slices.Equal(perm, newColdPerm(7, connected)) || slices.Equal(perm, newColdPerm(8, connected)) {
		t.Fatal("the source permutation must follow the seed")
	}
	a, b := &coldSources{perm: perm, client: 0}, &coldSources{perm: perm, client: 1}
	seen := map[int]bool{}
	for i := 0; i < len(perm)/2; i++ {
		for _, s := range []*coldSources{a, b} {
			u := s.next()
			if seen[u] {
				t.Fatalf("source %d repeated before the permutation wrapped", u)
			}
			seen[u] = true
		}
	}
}

func TestBatchesValidAndDeterministic(t *testing.T) {
	_, c := smallCommunity(t)
	gen, again, other := newBatchGen(5, c), newBatchGen(5, c), newBatchGen(6, c)
	replay := ratings.NewBuilderFrom(c.d)
	for i := 0; i < 40; i++ {
		evs, data, err := gen.next()
		if err != nil {
			t.Fatal(err)
		}
		_, same, _ := again.next()
		_, diff, _ := other.next()
		if !bytes.Equal(data, same) || bytes.Equal(data, diff) {
			t.Fatalf("batch %d does not follow the seed", i)
		}
		kinds := map[store.EventKind]int{}
		for _, ev := range evs {
			kinds[ev.Kind]++
			if ev.Kind == store.EvAddTrust && ev.User == ev.To {
				t.Fatalf("batch %d: self-trust %d", i, ev.User)
			}
		}
		if kinds[store.EvAddUser] != 1 || kinds[store.EvAddObject] != 1 || kinds[store.EvAddReview] != 1 ||
			kinds[store.EvAddRating] != batchRatings || kinds[store.EvAddTrust] != batchTrust {
			t.Fatalf("batch %d has the wrong shape: %v", i, kinds)
		}
		// The encoded bytes decode to the events, and the log accepts them:
		// no duplicate or self rating, review or trust edge.
		decoded, err := store.ReadLog(bytes.NewReader(data))
		if err != nil || !slices.Equal(decoded, evs) {
			t.Fatalf("batch %d does not round-trip the log format: %v", i, err)
		}
		if err := store.Replay(decoded, replay); err != nil {
			t.Fatalf("batch %d rejected on replay: %v", i, err)
		}
	}
}

// TestBatchRatersFollowActivity checks that batch raters are drawn by the
// community's activity: the most active tenth of the users, who rate most
// of the community's reviews, also cast most of the batches' ratings.
func TestBatchRatersFollowActivity(t *testing.T) {
	_, c := smallCommunity(t)
	activity := c.activity()
	order := make([]int, len(activity))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(activity[b], activity[a]) })
	top := map[ratings.UserID]bool{}
	for _, u := range order[:len(order)/10] {
		top[ratings.UserID(u)] = true
	}
	share := func(raters []ratings.UserID) float64 {
		n := 0
		for _, u := range raters {
			if top[u] {
				n++
			}
		}
		return float64(n) / float64(len(raters))
	}
	var community, batches []ratings.UserID
	for _, rt := range c.d.Ratings() {
		community = append(community, rt.Rater)
	}
	gen := newBatchGen(9, c)
	for i := 0; i < 40; i++ {
		evs, _, err := gen.next()
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if ev.Kind == store.EvAddRating && int(ev.User) < len(activity) {
				batches = append(batches, ev.User)
			}
		}
	}
	want, got := share(community), share(batches)
	if want < 0.3 || got < want*0.8 || got > want*1.2 {
		t.Fatalf("most active tenth cast %.2f of the batches' ratings and %.2f of the community's", got, want)
	}
}
