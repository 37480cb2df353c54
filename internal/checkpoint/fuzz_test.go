package checkpoint

import (
	"bytes"
	"testing"

	"weboftrust"
	"weboftrust/internal/ratings"
)

// fuzzModel derives a model over a tiny hand-rolled community — small
// enough that the seed checkpoint stays a few KB and a fuzz iteration
// that somehow decodes still rehydrates fast.
func fuzzModel(t testing.TB) *weboftrust.TrustModel {
	t.Helper()
	b := ratings.NewBuilder()
	b.AddCategory("movies")
	b.AddCategory("books")
	u0 := b.AddUser("ann")
	u1 := b.AddUser("bob")
	u2 := b.AddUser("cho")
	o0, err := b.AddObject(0, "heat")
	if err != nil {
		t.Fatal(err)
	}
	o1, err := b.AddObject(1, "dune")
	if err != nil {
		t.Fatal(err)
	}
	r0, err := b.AddReview(u0, o0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := b.AddReview(u1, o1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddRating(u1, r0, 0.8); err != nil {
		t.Fatal(err)
	}
	if err := b.AddRating(u2, r1, 0.4); err != nil {
		t.Fatal(err)
	}
	m, err := weboftrust.Derive(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// FuzzReadCheckpoint pins the checkpoint decoder's hardening: no input
// may panic it or allocate meaningfully past the input's own length, and
// anything that decodes must serve the exact values it re-encodes to.
// Each input is read twice: as given, which covers the magic, version
// and checksum checks, and re-sealed with a valid checksum, which lets a
// mutation reach the section decoders behind them.
func FuzzReadCheckpoint(f *testing.F) {
	model := fuzzModel(f)
	var buf bytes.Buffer
	if err := Write(&buf, model, 77, 100); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn mid-artifacts
	f.Add(valid[:9])            // magic + version only
	f.Add([]byte{})
	f.Add([]byte("WOTCK001"))
	mutated := bytes.Clone(valid)
	mutated[len(mutated)/4] ^= 0x20
	f.Add(mutated)
	flippedTail := bytes.Clone(valid)
	flippedTail[len(flippedTail)-1] ^= 0xff // checksum damage
	f.Add(flippedTail)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, seal(data)} {
			m, info, err := Read(bytes.NewReader(in))
			if err != nil {
				continue
			}
			if info.Offset < 0 || info.LogSize < info.Offset {
				t.Fatalf("implausible position %+v from successful read", info)
			}
			// A successful read is CRC-clean, so re-encoding must be
			// deterministic and re-decodable.
			var out bytes.Buffer
			if err := Write(&out, m, info.Offset, info.LogSize); err != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
			m2, info2, err := Read(bytes.NewReader(out.Bytes()))
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if info2.Offset != info.Offset || m2.Dataset().NumUsers() != m.Dataset().NumUsers() {
				t.Fatalf("round trip drifted: offset %d→%d, users %d→%d",
					info.Offset, info2.Offset, m.Dataset().NumUsers(), m2.Dataset().NumUsers())
			}
		}
	})
}
