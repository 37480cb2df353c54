// Native fuzz target for the event-log reader, the one decoder of
// dataset input: no input, however corrupt or adversarial, may panic the
// reader or move its offset past the input's end, and whatever decodes
// replays without panicking. The reader's one allocation sized from wire
// data, a record's payload, is capped at maxFrameBytes. CI runs it for a
// short smoke (`make fuzz-smoke`); longer local runs just work:
//
//	go test -fuzz FuzzLogReader -fuzztime 60s ./internal/store
package store

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"weboftrust/internal/ratings"
)

// fuzzDataset builds a tiny hand-rolled community for seed corpora
// (synth generation is too slow to run per fuzz iteration, and seeds
// should be minimal anyway).
func fuzzDataset(t testing.TB) *ratings.Dataset {
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
	if err := b.AddTrust(u0, u1); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

func FuzzLogReader(f *testing.F) {
	d := fuzzDataset(f)
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	if err := AppendDataset(lw, d); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	f.Add([]byte{})
	f.Add([]byte{0x0a, 0x01}) // frame promising more than exists
	mutated := bytes.Clone(valid)
	mutated[len(mutated)/2] ^= 0x01
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		lr := NewLogReader(bytes.NewReader(data), 0)
		var events []Event
		var tornAt int64 = -1
		for {
			ev, err := lr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				var trunc *TruncatedError
				if errors.As(err, &trunc) {
					tornAt = trunc.Offset
					if trunc.Offset != lr.Offset() {
						t.Fatalf("truncation offset %d != reader offset %d", trunc.Offset, lr.Offset())
					}
				}
				break
			}
			events = append(events, ev)
		}
		if int64(len(data)) < lr.Offset() {
			t.Fatalf("offset %d past end of %d-byte input", lr.Offset(), len(data))
		}
		if tornAt >= 0 && tornAt > int64(len(data)) {
			t.Fatalf("torn offset %d past end of %d-byte input", tornAt, len(data))
		}
		// Replaying whatever decoded must never panic; validation errors
		// are expected for fuzzed content.
		_ = Replay(events, ratings.NewBuilder())
	})
}
