package router

// White-box tests for the small pure pieces of the routing layer: the
// circuit-breaker state machine, shard-list parsing edge cases, and the
// allocation-free query scanner.

import (
	"testing"
	"time"
)

func TestBreakerTripCooldownProbeRecover(t *testing.T) {
	var b breaker
	now := time.Now().UnixNano()
	cooldown := int64(time.Second)

	if !b.acquire() {
		t.Fatalf("fresh breaker refused an attempt")
	}
	// threshold-1 failures: still closed.
	for i := 0; i < breakerThreshold-1; i++ {
		if tripped := b.onFailure(now); tripped {
			t.Fatalf("tripped after %d failures, threshold %d", i+1, breakerThreshold)
		}
	}
	if !b.acquire() {
		t.Fatalf("breaker under threshold refused an attempt")
	}
	if tripped := b.onFailure(now); !tripped {
		t.Fatalf("threshold-th failure did not report a trip")
	}
	if b.stateName() != "open" {
		t.Fatalf("state after trip = %q, want open", b.stateName())
	}
	// Open + cooldown not elapsed: everyone is refused, and nobody probes.
	if b.acquire() || b.claimProbe(now+cooldown/2, cooldown) {
		t.Fatalf("open breaker admitted or granted a probe before cooldown")
	}
	// Cooldown elapsed: exactly one caller wins the probe, and requests
	// keep skipping the replica while it runs.
	probeAt := now + cooldown + 1
	if !b.claimProbe(probeAt, cooldown) {
		t.Fatalf("cooldown elapsed: no caller won the probe")
	}
	if b.stateName() != "half-open" {
		t.Fatalf("state during probe = %q, want half-open", b.stateName())
	}
	if b.claimProbe(probeAt, cooldown) {
		t.Fatalf("second caller also won the probe")
	}
	if b.acquire() {
		t.Fatalf("half-open breaker admitted a request")
	}
	// Probe succeeds: recovered, closed, failure count reset.
	if recovered := b.onSuccess(); !recovered {
		t.Fatalf("successful probe did not report recovery")
	}
	if b.stateName() != "closed" {
		t.Fatalf("state after recovery = %q, want closed", b.stateName())
	}
	if !b.acquire() || b.claimProbe(probeAt+cooldown+1, cooldown) {
		t.Fatalf("recovered breaker refused an attempt or granted a probe")
	}
	// The consecutive counter was reset: threshold-1 new failures must
	// not trip.
	for i := 0; i < breakerThreshold-1; i++ {
		if b.onFailure(probeAt) {
			t.Fatalf("stale failure count survived recovery")
		}
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	var b breaker
	cooldown := int64(time.Second)
	now := int64(1)
	for i := 0; i < breakerThreshold; i++ {
		b.onFailure(now)
	}
	probeAt := now + cooldown + 1
	if !b.claimProbe(probeAt, cooldown) {
		t.Fatalf("probe refused after cooldown")
	}
	// Probe fails: reopen silently (no second trip), fresh cooldown from
	// the probe failure's timestamp.
	if tripped := b.onFailure(probeAt); tripped {
		t.Fatalf("failed probe double-counted as a trip")
	}
	if b.stateName() != "open" {
		t.Fatalf("state after failed probe = %q, want open", b.stateName())
	}
	if b.claimProbe(probeAt+cooldown/2, cooldown) {
		t.Fatalf("reopened breaker granted a probe before the fresh cooldown")
	}
	if !b.claimProbe(probeAt+cooldown+1, cooldown) {
		t.Fatalf("reopened breaker refused the next probe")
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	var b breaker
	for i := 0; i < breakerThreshold-1; i++ {
		b.onFailure(1)
	}
	if recovered := b.onSuccess(); recovered {
		t.Fatalf("success on a closed breaker reported recovery")
	}
	// The streak restarts: threshold-1 more failures must not trip.
	for i := 0; i < breakerThreshold-1; i++ {
		if b.onFailure(1) {
			t.Fatalf("failure streak survived an intervening success")
		}
	}
}

func TestParseShards(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want [][]string
		err  bool
	}{
		{"single", "http://a:1", [][]string{{"http://a:1"}}, false},
		{"three shards", "a,b,c", [][]string{{"a"}, {"b"}, {"c"}}, false},
		{"replicas", "a|a2,b", [][]string{{"a", "a2"}, {"b"}}, false},
		{"spaces trimmed", " a | a2 , b ", [][]string{{"a", "a2"}, {"b"}}, false},
		{"empty replica dropped", "a||a2,b", [][]string{{"a", "a2"}, {"b"}}, false},
		{"empty", "", nil, true},
		{"only whitespace", "   ", nil, true},
		{"trailing comma", "a,b,", nil, true},
		{"leading comma", ",a", nil, true},
		{"whitespace-only shard", "a, ,b", nil, true},
		{"whitespace-only replica list", "a, | ,b", nil, true},
		{"double comma", "a,,b", nil, true},
	}
	for _, tc := range cases {
		got, err := ParseShards(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("%s: ParseShards(%q) = %v, want error", tc.name, tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: ParseShards(%q): %v", tc.name, tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d shards, want %d", tc.name, len(got), len(tc.want))
			continue
		}
		for i := range got {
			if len(got[i]) != len(tc.want[i]) {
				t.Errorf("%s: shard %d has %v, want %v", tc.name, i, got[i], tc.want[i])
				continue
			}
			for j := range got[i] {
				if got[i][j] != tc.want[i][j] {
					t.Errorf("%s: shard %d replica %d = %q, want %q", tc.name, i, j, got[i][j], tc.want[i][j])
				}
			}
		}
	}
}

func TestQueryInt(t *testing.T) {
	cases := []struct {
		name  string
		query string
		key   string
		want  int
		ok    bool
	}{
		{"simple", "user=7", "user", 7, true},
		{"second pair", "k=10&user=7", "user", 7, true},
		{"missing", "k=10", "user", 0, false},
		{"empty query", "", "user", 0, false},
		{"empty value", "user=", "user", 0, false},
		{"non-numeric", "user=abc", "user", 0, false},
		// Percent-escaped digits are NOT decoded: the scanner works on
		// the raw query, and shards see the same raw query — a router
		// that decoded here could route to a different shard than the
		// one the shard's own parser implies. Reject, don't guess.
		{"escaped value", "user=%37", "user", 0, false},
		{"escaped key no match", "us%65r=7", "user", 0, false},
		// Duplicates: first occurrence wins, even when invalid — the
		// scanner never falls through to a later duplicate.
		{"duplicate first wins", "user=3&user=9", "user", 3, true},
		{"duplicate invalid first", "user=x&user=9", "user", 0, false},
		{"key prefix no match", "username=5", "user", 0, false},
		{"negative", "user=-2", "user", -2, true},
		{"flag without equals", "user", "user", 0, false},
	}
	for _, tc := range cases {
		got, ok := queryInt(tc.query, tc.key)
		if got != tc.want || ok != tc.ok {
			t.Errorf("%s: queryInt(%q, %q) = (%d, %v), want (%d, %v)",
				tc.name, tc.query, tc.key, got, ok, tc.want, tc.ok)
		}
	}
}

func TestStaleCacheLRU(t *testing.T) {
	c := newStaleCache(2)
	c.put("a", "application/json", []byte("A"))
	c.put("b", "application/json", []byte("B"))
	if ct, body, ok := c.get("a"); !ok || string(body) != "A" || ct != "application/json" {
		t.Fatalf("get a: %q %q %v", ct, body, ok)
	}
	// "b" is now the LRU entry; inserting "c" must evict it.
	c.put("c", "application/json", []byte("C"))
	if _, _, ok := c.get("b"); ok {
		t.Fatalf("LRU entry b survived eviction")
	}
	if _, _, ok := c.get("a"); !ok {
		t.Fatalf("recently used entry a was evicted")
	}
	// Update-in-place must not grow the cache.
	c.put("a", "application/json", []byte("A2"))
	if _, body, _ := c.get("a"); string(body) != "A2" {
		t.Fatalf("update-in-place lost: %q", body)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}
