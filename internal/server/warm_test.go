package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWarmDemandSurvivesReplacedState pins that demand, not values,
// crosses a swap. Queries on the boot state force the rank vector, the
// anomaly scores and the appleseed sketch. State 2's warm forces the
// rank vector and parks before the landmark selection; state 3's warm
// parks before its first holder; state 4 lands while both are parked.
// Released, each replaced warm stops at its next holder, and state 4
// still warms exactly the holders the boot state's queries forced. A
// carry that peeked at the predecessor's values would hand state 3 only
// the rank vector and state 4 nothing.
func TestWarmDemandSurvivesReplacedState(t *testing.T) {
	path, d := writeLogFile(t)
	srv, tailer, err := Open(path, time.Hour, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for _, url := range []string{"/v1/rank?k=5", "/v1/anomaly?user=3", "/v1/propagate?algo=appleseed&user=3&approx=landmark"} {
		if rec := get(t, h, url); rec.Code != 200 {
			t.Fatalf("%s: %d %s", url, rec.Code, rec.Body.String())
		}
	}
	want := strings.Join(forcedHolders(srv.cur.Load()), ", ")

	// Each version's gate calls come from that version's one warm
	// goroutine, so calls[v] has a single writer.
	var calls [5]int
	parked := make(chan uint64)
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(releaseAll)
	srv.warmGate = func(version uint64) {
		calls[version]++
		if (version == 2 && calls[version] == 2) || (version == 3 && calls[version] == 1) {
			parked <- version
			<-release
		}
	}
	chain := newChainLog(d, 25)
	poll := func() *state {
		t.Helper()
		evs := chain.batch()
		appendEvents(t, path, evs)
		if n, err := tailer.Poll(); err != nil || n != len(evs) {
			t.Fatalf("poll n=%d err=%v, want %d events", n, err, len(evs))
		}
		return srv.cur.Load()
	}
	awaitParked := func(version uint64) {
		t.Helper()
		select {
		case v := <-parked:
			if v != version {
				t.Fatalf("state %d's warm parked, want state %d's", v, version)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("state %d's warm never reached its gate", version)
		}
	}

	s2 := poll()
	awaitParked(2)
	s3 := poll()
	awaitParked(3)
	s4 := poll()
	releaseAll()
	<-s2.warmed
	<-s3.warmed
	srv.WaitWarm()

	if got := strings.Join(forcedHolders(s2), ", "); got != "rank" {
		t.Errorf("state 2, replaced mid-warm, holds [%s], want only the rank vector it forced before", got)
	}
	if got := forcedHolders(s3); len(got) != 0 {
		t.Errorf("state 3, replaced before its warm began, holds %v", got)
	}
	if got := strings.Join(forcedHolders(s4), ", "); got != want {
		t.Errorf("state 4 warmed [%s], want the holders forced before state 2: [%s]", got, want)
	}
	if done, abandoned := srv.metrics.warmsDone.Load(), srv.metrics.warmsAbandoned.Load(); done != 1 || abandoned != 2 {
		t.Errorf("warms done %d, abandoned %d; want 1 and 2", done, abandoned)
	}
	if got := srv.metrics.anomalyComputes.Load(); got != 2 {
		t.Errorf("anomaly computes %d, want 2: the boot query and state 4's warm", got)
	}
	if got := srv.metrics.landmarkBuilds.Load(); got != 2 {
		t.Errorf("landmark builds %d, want 2: the boot query and state 4's warm", got)
	}
	m := get(t, h, "/metrics").Body.String()
	for _, line := range []string{`trustd_warms_total{outcome="done"} 1`, `trustd_warms_total{outcome="abandoned"} 2`} {
		if !strings.Contains(m, "\n"+line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// TestReadsRacingWarmMatchCold sends reads of the rank leaderboard, the
// anomaly leaderboard and an appleseed landmark answer the moment Poll
// returns, racing the post-publish warm for the holders they read. Every
// body must come from the new version and equal a cold server's over the
// same log prefix, and each swap must run exactly one anomaly pass and
// one sketch build: readers and the warm share them through lazy.get, so
// the work moved off the ingest path without being skipped or doubled.
func TestReadsRacingWarmMatchCold(t *testing.T) {
	path, d := writeLogFile(t)
	srv, tailer, err := Open(path, time.Hour, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	urls := []string{"/v1/rank?k=10", "/v1/anomaly/top?k=10", "/v1/propagate?algo=appleseed&user=3&k=10&approx=landmark"}
	for _, url := range urls {
		if rec := get(t, h, url); rec.Code != 200 {
			t.Fatalf("%s: %d %s", url, rec.Code, rec.Body.String())
		}
	}
	chain := newChainLog(d, 27)
	const readers = 6
	for swap := 1; swap <= 3; swap++ {
		anomalies, builds := srv.metrics.anomalyComputes.Load(), srv.metrics.landmarkBuilds.Load()
		evs := chain.batch()
		appendEvents(t, path, evs)
		start := make(chan struct{})
		recs := make([][]*httptest.ResponseRecorder, readers)
		var wg sync.WaitGroup
		for r := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := range urls {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, urls[(r+i)%len(urls)], nil))
					recs[r] = append(recs[r], rec)
				}
			}()
		}
		n, err := tailer.Poll()
		close(start)
		wg.Wait()
		if err != nil || n != len(evs) {
			t.Fatalf("swap %d: poll n=%d err=%v, want %d events", swap, n, err, len(evs))
		}
		srv.WaitWarm()
		_, _, version := srv.Current()
		coldModel, offset := coldDerive(t, path)
		cold := New(coldModel, offset, Options{}).Handler()
		for r := range readers {
			for i, rec := range recs[r] {
				url := urls[(r+i)%len(urls)]
				if rec.Code != 200 {
					t.Fatalf("swap %d reader %d %s: %d %s", swap, r, url, rec.Code, rec.Body.String())
				}
				var v struct{ Version uint64 }
				if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || v.Version != version {
					t.Errorf("swap %d reader %d %s: version %d (%v), want %d", swap, r, url, v.Version, err, version)
				}
				if g, w := withoutVersion(t, rec.Body.Bytes()), withoutVersion(t, get(t, cold, url).Body.Bytes()); g != w {
					t.Errorf("swap %d reader %d %s:\nserved %s\ncold   %s", swap, r, url, g, w)
				}
			}
		}
		if got := srv.metrics.anomalyComputes.Load() - anomalies; got != 1 {
			t.Errorf("swap %d ran %d anomaly passes, want 1", swap, got)
		}
		if got := srv.metrics.landmarkBuilds.Load() - builds; got != 1 {
			t.Errorf("swap %d built %d landmark sketches, want 1", swap, got)
		}
	}
}
