package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"weboftrust/internal/ratings"
	"weboftrust/internal/store"
)

// chainLog generates valid ingest events against a mirror of the event
// log: every candidate event is replayed into the mirror first and kept
// only if the mirror accepts it, so a generated batch can never poison
// the tailer.
type chainLog struct {
	mirror *ratings.Builder
	rng    *rand.Rand
	// users and reviews are the counts the log held before the chain
	// started: raters, trust-edge endpoints and rated reviews are drawn
	// from them.
	users, reviews int
	evs            []store.Event
}

func newChainLog(d *ratings.Dataset, seed int64) *chainLog {
	return &chainLog{
		mirror:  ratings.NewBuilderFrom(d),
		rng:     rand.New(rand.NewSource(seed)),
		users:   d.NumUsers(),
		reviews: d.NumReviews(),
	}
}

func (c *chainLog) try(ev store.Event) bool {
	if store.Replay([]store.Event{ev}, c.mirror) != nil {
		return false
	}
	c.evs = append(c.evs, ev)
	return true
}

// rate appends one rating by a random existing user on review, retrying
// until the mirror accepts one.
func (c *chainLog) rate(review ratings.ReviewID) {
	for {
		rater := ratings.UserID(c.rng.Intn(c.users))
		if c.try(store.Event{Kind: store.EvAddRating, User: rater, Review: review, Level: uint8(1 + c.rng.Intn(5))}) {
			return
		}
	}
}

// batch returns a multi-category batch shaped like production ingest: a
// new user writing a review of a new object, a dozen ratings by existing
// users (a third on the new review, the rest on existing reviews across
// categories), and one trust edge between existing users.
func (c *chainLog) batch() []store.Event {
	c.evs = nil
	writer := ratings.UserID(c.mirror.NumUsers())
	object := ratings.ObjectID(c.mirror.NumObjects())
	review := ratings.ReviewID(c.mirror.NumReviews())
	cat := ratings.CategoryID(c.rng.Intn(c.mirror.NumCategories()))
	for _, ev := range []store.Event{
		{Kind: store.EvAddUser},
		{Kind: store.EvAddObject, Category: cat},
		{Kind: store.EvAddReview, User: writer, Object: object},
	} {
		if !c.try(ev) {
			panic("chain: new user, object or review rejected")
		}
	}
	for i := 0; i < 12; i++ {
		if i < 4 {
			c.rate(review)
		} else {
			c.rate(ratings.ReviewID(c.rng.Intn(c.reviews)))
		}
	}
	for !c.try(store.Event{Kind: store.EvAddTrust, User: ratings.UserID(c.rng.Intn(c.users)), To: ratings.UserID(c.rng.Intn(c.users))}) {
	}
	return c.evs
}

// tick returns the minimal ingest tick: one rating by an existing user
// on an existing review.
func (c *chainLog) tick() []store.Event {
	c.evs = nil
	c.rate(ratings.ReviewID(c.rng.Intn(c.reviews)))
	return c.evs
}

// withoutVersion re-encodes a JSON body without its top-level "version"
// field, which counts swaps and so differs between a swapped server and
// a cold one. Numbers pass through as their literal text.
func withoutVersion(t *testing.T, body []byte) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	if m, ok := v.(map[string]any); ok {
		delete(m, "version")
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestSwapChainMatchesColdServer drives eight swaps through Tailer.Poll,
// alternating multi-category batches with one-rating ticks, and queries
// every model-derived read endpoint between swaps, so the result cache,
// the rank vector, the anomaly scores and all three landmark sketches
// are warm when the next swap lands. After each swap, every answer must
// be byte-identical (ignoring "version") to a server built from a cold
// Derive of the same log prefix: /v1/graph/stats, /v1/rank?k=20 and
// /v1/anomaly/top, plus /v1/topk, /v1/trust, /v1/expertise,
// /v1/neighbors, /v1/anomaly, /v1/rank, and /v1/propagate for all three
// algorithms, exact and approx=landmark, for every 13th user.
func TestSwapChainMatchesColdServer(t *testing.T) {
	path, d := writeLogFile(t)
	srv, tailer, err := Open(path, time.Hour, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	urls := func() []string {
		model, _, _ := srv.Current()
		numU := model.Dataset().NumUsers()
		urls := []string{"/v1/graph/stats", "/v1/rank?k=20", "/v1/anomaly/top?k=20"}
		for u := 0; u < numU; u += 13 {
			q := itoa(u)
			urls = append(urls, "/v1/topk?user="+q, "/v1/trust?from="+q+"&to="+itoa((u+1)%numU),
				"/v1/expertise?user="+q, "/v1/neighbors?user="+q, "/v1/anomaly?user="+q, "/v1/rank?user="+q)
			for _, algo := range allAlgos {
				p := "/v1/propagate?algo=" + algo.String() + "&user=" + q
				urls = append(urls, p, p+"&approx=landmark")
			}
		}
		return urls
	}
	warm := func() {
		for _, url := range urls() {
			if rec := get(t, h, url); rec.Code != 200 {
				t.Fatalf("warm %s: %d %s", url, rec.Code, rec.Body.String())
			}
		}
	}

	chain := newChainLog(d, 14)
	warm()
	for swap := 1; swap <= 8; swap++ {
		var evs []store.Event
		if swap%2 == 1 {
			evs = chain.batch()
		} else {
			evs = chain.tick()
		}
		appendEvents(t, path, evs)
		if n, err := tailer.Poll(); err != nil || n != len(evs) {
			t.Fatalf("swap %d: poll n=%d err=%v, want %d events", swap, n, err, len(evs))
		}
		model, _, _ := srv.Current()
		if model.DirtyUsers() == nil {
			t.Fatalf("swap %d was not incremental", swap)
		}
		coldModel, offset := coldDerive(t, path)
		cold := New(coldModel, offset, Options{}).Handler()
		for _, url := range urls() {
			got, want := get(t, h, url), get(t, cold, url)
			if got.Code != want.Code {
				t.Fatalf("swap %d %s: status %d, cold server %d", swap, url, got.Code, want.Code)
			}
			if g, w := withoutVersion(t, got.Body.Bytes()), withoutVersion(t, want.Body.Bytes()); g != w {
				t.Fatalf("swap %d %s:\nserved %s\ncold   %s", swap, url, g, w)
			}
		}
	}
}

// forcedHolders names the per-state artifacts st has computed, peeking
// only.
func forcedHolders(st *state) []string {
	var names []string
	if _, ok := st.rank.peek(); ok {
		names = append(names, "rank")
	}
	if _, ok := st.anomaly.peek(); ok {
		names = append(names, "anomaly")
	}
	if _, ok := st.landmarks.ids.peek(); ok {
		names = append(names, "landmark ids")
	}
	for _, algo := range allAlgos {
		if _, ok := st.landmarks.algos[algo].peek(); ok {
			names = append(names, algo.String()+" sketch")
		}
	}
	return names
}

// TestSwapWarmsOnlyForcedHolders pins the swap's one warm rule: before
// publishing, a swap forces exactly the per-state artifacts its
// predecessor had forced. Three swaps under top-k and exact propagation
// traffic force nothing and score no anomalies; once rank, anomaly and
// the appleseed sketch are forced, the next swap publishes a state
// holding exactly those plus the landmark selection the sketch needs,
// with the moletrust and tidaltrust sketches still lazy. The rule is
// sticky: a swap after no query at all warms the same holders again.
func TestSwapWarmsOnlyForcedHolders(t *testing.T) {
	path, d := writeLogFile(t)
	srv, tailer, err := Open(path, time.Hour, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	query := func(urls ...string) {
		t.Helper()
		for _, url := range urls {
			if rec := get(t, h, url); rec.Code != 200 {
				t.Fatalf("%s: %d %s", url, rec.Code, rec.Body.String())
			}
		}
	}
	chain := newChainLog(d, 16)
	poll := func() {
		t.Helper()
		evs := chain.batch()
		appendEvents(t, path, evs)
		if n, err := tailer.Poll(); err != nil || n != len(evs) {
			t.Fatalf("poll n=%d err=%v, want %d events", n, err, len(evs))
		}
	}

	for range 3 {
		query("/v1/topk?user=3", "/v1/propagate?algo=appleseed&user=3")
		poll()
	}
	if got := forcedHolders(srv.cur.Load()); len(got) != 0 {
		t.Errorf("three swaps without rank, anomaly or landmark traffic forced %v", got)
	}
	if m := get(t, h, "/metrics").Body.String(); !strings.Contains(m, "\ntrustd_anomaly_computes_total 0\n") {
		t.Errorf("swaps scored anomalies nobody queried: trustd_anomaly_computes_total %d, want 0", srv.metrics.anomalyComputes.Load())
	}

	query("/v1/rank?k=5", "/v1/anomaly?user=3", "/v1/propagate?algo=appleseed&user=3&approx=landmark")
	poll()
	want := []string{"rank", "anomaly", "landmark ids", "appleseed sketch"}
	if got := forcedHolders(srv.cur.Load()); strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Errorf("swap after forcing rank, anomaly and the appleseed sketch warmed %v, want %v", got, want)
	}

	poll()
	if got := forcedHolders(srv.cur.Load()); strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Errorf("unqueried swap after a warmed one warmed %v, want %v", got, want)
	}
	if got := srv.metrics.anomalyComputes.Load(); got != 3 {
		t.Errorf("trustd_anomaly_computes_total %d, want 3: the query, then one warm per swap", got)
	}
}
