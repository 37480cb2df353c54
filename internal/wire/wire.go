// Package wire decodes the repository's in-memory binary formats: the
// dataset image (ratings.AppendImage) and the checkpoint bundle that
// embeds it. A Reader walks one byte slice, so every count it reads can
// be bounded by the bytes that remain, or by dimensions the caller has
// already decoded, before anything is sized by it. The first failure
// sticks: later reads return zero values, and the caller checks Err once
// per section. Every value is copied out of the input except Prefixed's
// window, which the caller decodes in turn.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Reader decodes from an in-memory byte string.
type Reader struct {
	rest []byte
	err  error
	kind error
}

// NewReader reads data; every failure it records wraps kind.
func NewReader(data []byte, kind error) *Reader {
	return &Reader{rest: data, kind: kind}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of bytes not yet read.
func (r *Reader) Len() int { return len(r.rest) }

// Fail records a failure unless one is already recorded.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{r.kind}, args...)...)
	}
}

// take consumes the next n bytes, failing when fewer remain.
func (r *Reader) take(what string, n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.rest) {
		r.Fail("truncated %s", what)
		return nil
	}
	b := r.rest[:n:n]
	r.rest = r.rest[n:]
	return b
}

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.rest)
	if n <= 0 {
		r.Fail("truncated or overlong varint")
		return 0
	}
	r.rest = r.rest[n:]
	return v
}

// Count reads a uvarint section count and bounds it: a section of n
// records, each at least minBytes long, cannot be larger than the bytes
// that remain, so no forged count can size an allocation past the
// input's own length.
func (r *Reader) Count(what string, minBytes int) int {
	v := r.Uvarint()
	if r.err == nil && v > uint64(len(r.rest)/minBytes) {
		r.Fail("%s count %d exceeds remaining %d bytes", what, v, len(r.rest))
		return 0
	}
	return int(v)
}

// Bounded reads a uvarint count and fails if it exceeds max, a bound
// the caller took from what it has already decoded.
func (r *Reader) Bounded(what string, max int) int {
	v := r.Uvarint()
	if r.err == nil && v > uint64(max) {
		r.Fail("%s count %d exceeds bound %d", what, v, max)
		return 0
	}
	return int(v)
}

// ID reads a uvarint identifier and fails unless it is below n.
func (r *Reader) ID(what string, n int) int {
	v := r.Uvarint()
	if r.err == nil && v >= uint64(n) {
		r.Fail("%s id %d out of range %d", what, v, n)
		return 0
	}
	return int(v)
}

// The per-record reads below slice the input directly rather than go
// through take: they run once per record of the image, and the extra
// call slowed a Large image's decode by 10–18% in a scratch benchmark
// on 2 vCPUs.

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.rest) < 1 {
		r.Fail("truncated byte")
		return 0
	}
	b := r.rest[0]
	r.rest = r.rest[1:]
	return b
}

// Fixed64 reads one 8-byte little-endian word.
func (r *Reader) Fixed64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.rest) < 8 {
		r.Fail("truncated word")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.rest)
	r.rest = r.rest[8:]
	return v
}

// Float reads one float64 as its exact IEEE-754 bits.
func (r *Reader) Float() float64 { return math.Float64frombits(r.Fixed64()) }

// Floats reads n float64s as their exact bits in one bulk conversion.
func (r *Reader) Floats(what string, n int) []float64 {
	if r.err == nil && n > len(r.rest)/8 {
		r.Fail("truncated %s (%d floats)", what, n)
	}
	raw := r.take(what, 8*n)
	if r.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// Prefixed reads a uvarint length and returns that many bytes as a
// window into the input, not a copy.
func (r *Reader) Prefixed(what string) []byte {
	return r.take(what, r.Count(what, 1))
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.Prefixed("string")) }

// U32 reads one fixed-width identifier and fails unless it is below n.
func (r *Reader) U32(what string, n int) int32 {
	if r.err != nil {
		return 0
	}
	if len(r.rest) < 4 {
		r.Fail("truncated %s", what)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.rest)
	r.rest = r.rest[4:]
	if v >= uint32(n) {
		r.Fail("%s id %d out of range %d", what, v, n)
		return 0
	}
	return int32(v)
}

// U32s bulk-decodes n fixed-width values, each below max.
func (r *Reader) U32s(what string, n, max int) []int32 {
	if r.err == nil && n > len(r.rest)/4 {
		r.Fail("truncated %s (%d entries)", what, n)
	}
	raw := r.take(what, 4*n)
	if r.err != nil {
		return nil
	}
	out := make([]int32, n)
	bound := uint32(max)
	for i := range out {
		v := binary.LittleEndian.Uint32(raw[4*i:])
		if v >= bound {
			r.Fail("%s entry %d out of range %d", what, v, max)
			return nil
		}
		out[i] = int32(v)
	}
	return out
}

// Offsets decodes a groups+1 fixed-width offset array, enforcing
// monotonicity within [0, payloadLen] starting at 0, so any group slice
// taken through it is in bounds. When exact is set the final entry must
// equal payloadLen (the grouping covers the whole payload); otherwise
// payloadLen is an upper bound and the final entry defines the payload's
// length.
func (r *Reader) Offsets(what string, groups, payloadLen int, exact bool) []int32 {
	offs := r.U32s(what, groups+1, payloadLen+1)
	if r.err != nil {
		return nil
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			r.Fail("%s offsets not monotonic", what)
			return nil
		}
	}
	if offs[0] != 0 {
		r.Fail("%s offsets start at %d", what, offs[0])
		return nil
	}
	if exact && int(offs[groups]) != payloadLen {
		r.Fail("%s offsets end at %d, want %d", what, offs[groups], payloadLen)
		return nil
	}
	return offs
}
