package mat

import "math/bits"

// Bitset is a fixed-size bit vector. The pipeline uses one per category to
// mark which users have expertise there, so the support of a derived-trust
// row (how many users a given user would trust at all) can be counted as a
// union of category bitsets instead of a full O(U·C) dot-product sweep.
type Bitset struct {
	n     int
	words []uint64
}

// NewBitset creates a bitset of n bits, all clear. It panics if n is
// negative.
func NewBitset(n int) *Bitset {
	if n < 0 {
		panic("mat: NewBitset: negative size")
	}
	return &Bitset{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of bits.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i. It panics if i is out of range.
func (b *Bitset) Set(i int) {
	if i < 0 || i >= b.n {
		panic("mat: Bitset.Set out of range")
	}
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Test reports whether bit i is set. It panics if i is out of range.
func (b *Bitset) Test(i int) bool {
	if i < 0 || i >= b.n {
		panic("mat: Bitset.Test out of range")
	}
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// OrInto ORs b into dst, which must have the same length. It panics on a
// length mismatch.
func (b *Bitset) OrInto(dst *Bitset) {
	if dst.n != b.n {
		panic("mat: Bitset.OrInto length mismatch")
	}
	for i, w := range b.words {
		dst.words[i] |= w
	}
}

// Reset clears all bits.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}
