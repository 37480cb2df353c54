package shard

import "testing"

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{"0/1", "0/3", "2/3", "7/8"} {
		sp, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if sp.String() != s {
			t.Fatalf("Parse(%q).String() = %q", s, sp.String())
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, s := range []string{"", "3", "1/", "/3", "a/3", "1/b", "-1/3", "3/3", "0/0", "0/-2"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (Spec{}).Validate(); err != nil {
		t.Fatalf("zero spec: %v", err)
	}
	if err := (Spec{Index: 0, Count: 1}).Validate(); err != nil {
		t.Fatalf("0/1: %v", err)
	}
	if err := (Spec{Index: 1, Count: 1}).Validate(); err == nil {
		t.Fatal("1/1 accepted")
	}
	if err := (Spec{Index: 2, Count: 0}).Validate(); err == nil {
		t.Fatal("2/0 accepted")
	}
}

func TestCanon(t *testing.T) {
	if (Spec{}).Canon() != (Spec{Index: 0, Count: 1}) {
		t.Fatal("zero spec does not canonicalise to 0/1")
	}
	if (Spec{Index: 2, Count: 5}).Canon() != (Spec{Index: 2, Count: 5}) {
		t.Fatal("sharded spec changed by Canon")
	}
}

// TestOwnerPartition pins that exactly one shard owns every id.
func TestOwnerPartition(t *testing.T) {
	for _, count := range []int{1, 2, 3, 5, 8} {
		for id := 0; id < 1000; id++ {
			owner := Owner(id, count)
			if owner < 0 || owner >= count {
				t.Fatalf("Owner(%d, %d) = %d out of range", id, count, owner)
			}
			owners := 0
			for i := 0; i < count; i++ {
				if (Spec{Index: i, Count: count}).Owns(id) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("id %d owned by %d shards of %d", id, owners, count)
			}
		}
	}
}

// TestOwnerBalance checks the partition is roughly uniform: each shard of
// N holds n/N ± 20% of a 30k-id space.
func TestOwnerBalance(t *testing.T) {
	const n = 30000
	for _, count := range []int{2, 3, 4, 8} {
		perShard := make([]int, count)
		for id := 0; id < n; id++ {
			perShard[Owner(id, count)]++
		}
		want := n / count
		for i, got := range perShard {
			if got < want*8/10 || got > want*12/10 {
				t.Errorf("count %d: shard %d owns %d of %d (want ~%d)", count, i, got, n, want)
			}
		}
	}
}

// TestOwnerMinimalMovement checks the consistent-hash property: growing
// the cluster from N to N+1 shards moves only ids assigned to the new
// shard, and roughly 1/(N+1) of them.
func TestOwnerMinimalMovement(t *testing.T) {
	const n = 30000
	for _, count := range []int{1, 2, 3, 7} {
		moved := 0
		for id := 0; id < n; id++ {
			before, after := Owner(id, count), Owner(id, count+1)
			if before != after {
				moved++
				if after != count {
					t.Fatalf("id %d moved %d -> %d, not to the new shard %d", id, before, after, count)
				}
			}
		}
		want := n / (count + 1)
		if moved < want*8/10 || moved > want*12/10 {
			t.Errorf("count %d->%d moved %d ids (want ~%d)", count, count+1, moved, want)
		}
	}
}

// TestOwnerGolden pins the hash function itself: a router and its shards
// must agree on the id -> shard mapping across builds, so it must never
// change.
func TestOwnerGolden(t *testing.T) {
	cases := []struct{ id, count, want int }{
		{0, 2, Owner(0, 2)},
		{0, 3, Owner(0, 3)},
	}
	_ = cases
	golden := map[[2]int]int{}
	for _, count := range []int{2, 3, 5} {
		for id := 0; id < 16; id++ {
			golden[[2]int{id, count}] = Owner(id, count)
		}
	}
	// A change to splitmix64 or the jump loop shows up as a different
	// distribution signature; pin a digest of the first assignments.
	var sig uint64
	for _, count := range []int{2, 3, 5} {
		for id := 0; id < 16; id++ {
			sig = sig*31 + uint64(golden[[2]int{id, count}])
		}
	}
	const wantSig = 0x6a67c16e4f73efe7
	if sig != wantSig {
		t.Fatalf("ownership signature %#x, want %#x — the hash changed, so routers and shards of different builds disagree", sig, wantSig)
	}
}

func TestCountOwned(t *testing.T) {
	const n = 5000
	for _, count := range []int{1, 2, 3} {
		total := 0
		for i := 0; i < count; i++ {
			total += Spec{Index: i, Count: count}.CountOwned(n)
		}
		if total != n {
			t.Fatalf("count %d: shards own %d of %d ids", count, total, n)
		}
	}
	if got := (Spec{}).CountOwned(42); got != 42 {
		t.Fatalf("unsharded CountOwned = %d", got)
	}
}
