package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
)

var errTest = errors.New("test format")

// TestReaderDecodes reads one of each value back from bytes built with
// binary.Append*.
func TestReaderDecodes(t *testing.T) {
	var b []byte
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendUvarint(b, 2) // count of two 4-byte records
	b = binary.LittleEndian.AppendUint32(b, 7)
	b = binary.LittleEndian.AppendUint32(b, 9)
	b = binary.AppendUvarint(b, 3)
	b = append(b, "abc"...)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.25))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(-1))
	b = append(b, 0xfe)

	r := NewReader(b, errTest)
	if v := r.Uvarint(); v != 300 {
		t.Fatalf("Uvarint = %d", v)
	}
	if n := r.Count("record", 4); n != 2 {
		t.Fatalf("Count = %d", n)
	}
	if id := r.U32("first", 8); id != 7 {
		t.Fatalf("U32 = %d", id)
	}
	if ids := r.U32s("rest", 1, 10); len(ids) != 1 || ids[0] != 9 {
		t.Fatalf("U32s = %v", ids)
	}
	if s := r.Str(); s != "abc" {
		t.Fatalf("Str = %q", s)
	}
	if fs := r.Floats("pair", 2); len(fs) != 2 || fs[0] != 0.25 || fs[1] != -1 {
		t.Fatalf("Floats = %v", fs)
	}
	if c := r.Byte(); c != 0xfe {
		t.Fatalf("Byte = %#x", c)
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("err %v with %d bytes left", r.Err(), r.Len())
	}
}

// TestReaderBoundsAndSticks pins that a count or length past the bytes
// remaining, or an id past its bound, fails naming what was read, wraps
// the reader's kind, and sticks: later reads return zero values.
func TestReaderBoundsAndSticks(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	for _, tc := range []struct {
		name, want string
		read       func(r *Reader)
	}{
		{"count", "user count", func(r *Reader) { r.Count("user", 1) }},
		{"bounded", "raters count", func(r *Reader) { r.Bounded("raters", 10) }},
		{"id", "rater id", func(r *Reader) { r.ID("rater", 10) }},
		{"prefixed", "dataset section", func(r *Reader) { r.Prefixed("dataset section") }},
		{"floats", "cells", func(r *Reader) { r.Floats("cells", 1<<40) }},
		{"u32s", "perm", func(r *Reader) { r.U32s("perm", 1<<40, 5) }},
		{"varint", "varint", func(r *Reader) { NewReader(nil, errTest).Uvarint(); r.Uvarint(); r.Uvarint() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(huge, errTest)
			tc.read(r)
			if !errors.Is(r.Err(), errTest) || !strings.Contains(r.Err().Error(), tc.want) {
				t.Fatalf("err = %v, want one wrapping the kind and naming %q", r.Err(), tc.want)
			}
			if v, f := r.Uvarint(), r.Floats("after", 0); v != 0 || f != nil {
				t.Fatalf("read after failure = %d, %v", v, f)
			}
		})
	}
}

// TestOffsets pins the offset array's rules: start at 0, never decrease,
// stay within the payload, and end at its length when exact.
func TestOffsets(t *testing.T) {
	arr := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	for _, tc := range []struct {
		name  string
		in    []byte
		exact bool
		ok    bool
	}{
		{"exact", arr(0, 2, 5), true, true},
		{"short end, exact", arr(0, 2, 4), true, false},
		{"short end, bound", arr(0, 2, 4), false, true},
		{"nonzero start", arr(1, 2, 5), true, false},
		{"decreasing", arr(0, 3, 2), false, false},
		{"past payload", arr(0, 2, 6), false, false},
		{"truncated", arr(0, 2), false, false},
	} {
		r := NewReader(tc.in, errTest)
		offs := r.Offsets("groups", 2, 5, tc.exact)
		if ok := r.Err() == nil; ok != tc.ok || ok != (offs != nil) {
			t.Errorf("%s: offsets %v, err %v; want ok=%v", tc.name, offs, r.Err(), tc.ok)
		}
	}
}
