package mat

import (
	"testing"
	"testing/quick"
)

func TestBitsetBasic(t *testing.T) {
	b := NewBitset(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
		if !b.Test(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if b.Count() != 4 {
		t.Errorf("Count = %d, want 4", b.Count())
	}
	b.Reset()
	if b.Count() != 0 {
		t.Errorf("Count after Reset = %d, want 0", b.Count())
	}
}

func TestBitsetOrInto(t *testing.T) {
	a := NewBitset(70)
	b := NewBitset(70)
	a.Set(1)
	a.Set(65)
	b.Set(2)
	a.OrInto(b)
	for _, i := range []int{1, 2, 65} {
		if !b.Test(i) {
			t.Errorf("bit %d missing after OrInto", i)
		}
	}
	if b.Count() != 3 {
		t.Errorf("Count = %d, want 3", b.Count())
	}
	if a.Count() != 2 {
		t.Error("source bitset modified by OrInto")
	}
}

func TestBitsetPanics(t *testing.T) {
	b := NewBitset(10)
	other := NewBitset(20)
	cases := []func(){
		func() { NewBitset(-1) },
		func() { b.Set(10) },
		func() { b.Set(-1) },
		func() { b.Test(10) },
		func() { b.OrInto(other) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// Property: Count equals the size of the reference set after a random
// sequence of Set operations.
func TestBitsetCountQuick(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 200
		b := NewBitset(n)
		ref := make(map[int]bool)
		for _, op := range ops {
			i := int(op) % n
			b.Set(i)
			ref[i] = true
		}
		if b.Count() != len(ref) {
			return false
		}
		for i := 0; i < n; i++ {
			if b.Test(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
