// Package shard defines the cluster's ownership rule: which shard of an
// N-shard deployment owns which source user. Every layer that partitions
// by source user — the model's Owns, trustd's ownership guard, log
// filtering by source, the request router — imports this one rule, so
// they can never disagree about who owns whom.
//
// Ownership is a consistent hash (Lamping & Veach's jump consistent hash
// over a splitmix64-mixed user id): deterministic across processes and
// restarts, uniform to within sampling noise, and minimal-movement when
// the shard count changes — growing N to N+1 reassigns only ~1/(N+1) of
// the users, which is what makes later rebalancing PRs tractable.
package shard

import (
	"fmt"
	"strconv"
	"strings"
)

// Spec names one shard of an N-shard deployment. The zero value (and any
// Count <= 1) is the unsharded single-process deployment, which owns
// every user.
type Spec struct {
	// Index is this shard's position in [0, Count).
	Index int
	// Count is the total number of shards.
	Count int
}

// Parse reads the operator spelling "i/N" (for example "0/3").
func Parse(s string) (Spec, error) {
	idx, cnt, ok := strings.Cut(s, "/")
	if !ok {
		return Spec{}, fmt.Errorf("shard: spec %q is not i/N", s)
	}
	i, err := strconv.Atoi(idx)
	if err != nil {
		return Spec{}, fmt.Errorf("shard: bad index in %q: %v", s, err)
	}
	n, err := strconv.Atoi(cnt)
	if err != nil {
		return Spec{}, fmt.Errorf("shard: bad count in %q: %v", s, err)
	}
	if n < 1 {
		return Spec{}, fmt.Errorf("shard: count %d < 1 in %q", n, s)
	}
	sp := Spec{Index: i, Count: n}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// String renders the spec in its operator spelling "i/N".
func (s Spec) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// Validate rejects impossible specs. The zero value is valid (unsharded).
func (s Spec) Validate() error {
	if s.Count == 0 && s.Index == 0 {
		return nil
	}
	if s.Count < 1 {
		return fmt.Errorf("shard: count %d < 1", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("shard: index %d outside [0, %d)", s.Index, s.Count)
	}
	return nil
}

// Canon maps every unsharded spelling (the zero value, 0/1) to Spec{0, 1}
// so specs compare reliably across layers that record them differently.
func (s Spec) Canon() Spec {
	if s.Count <= 1 {
		return Spec{Index: 0, Count: 1}
	}
	return s
}

// Owns reports whether this shard owns user id. Unsharded specs own
// everyone.
func (s Spec) Owns(id int) bool {
	if s.Count <= 1 {
		return true
	}
	return Owner(id, s.Count) == s.Index
}

// CountOwned returns how many of the ids in [0, n) this shard owns.
func (s Spec) CountOwned(n int) int {
	if s.Count <= 1 {
		return n
	}
	owned := 0
	for id := 0; id < n; id++ {
		if Owner(id, s.Count) == s.Index {
			owned++
		}
	}
	return owned
}

// Owner returns the shard index in [0, count) that owns user id, via jump
// consistent hash over a splitmix64-mixed id. count <= 1 returns 0.
//
// Nothing persisted records the mapping, but a router and its shards
// must agree on it, including processes of different builds during a
// rolling upgrade, so it must never change. The golden-value test pins
// it.
func Owner(id, count int) int {
	if count <= 1 {
		return 0
	}
	key := splitmix64(uint64(int64(id)))
	var b, j int64 = -1, 0
	for j < int64(count) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// splitmix64 mixes dense small ids into well-distributed 64-bit keys;
// jump consistent hash assumes a uniform key.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
