package store

import (
	"bytes"
	"encoding/csv"
	"errors"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"weboftrust/internal/ratings"
	"weboftrust/internal/stats"
	"weboftrust/internal/synth"
)

func genDataset(t *testing.T) *ratings.Dataset {
	t.Helper()
	cfg := synth.Small()
	cfg.NumUsers = 60
	cfg.TotalObjects = 30
	d, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func datasetsEqual(a, b *ratings.Dataset) bool {
	if a.NumUsers() != b.NumUsers() || a.NumCategories() != b.NumCategories() ||
		a.NumObjects() != b.NumObjects() || a.NumReviews() != b.NumReviews() ||
		a.NumRatings() != b.NumRatings() || a.NumTrustEdges() != b.NumTrustEdges() {
		return false
	}
	for u := 0; u < a.NumUsers(); u++ {
		if a.UserName(ratings.UserID(u)) != b.UserName(ratings.UserID(u)) {
			return false
		}
	}
	for c := 0; c < a.NumCategories(); c++ {
		if a.CategoryName(ratings.CategoryID(c)) != b.CategoryName(ratings.CategoryID(c)) {
			return false
		}
	}
	for o := 0; o < a.NumObjects(); o++ {
		if a.Object(ratings.ObjectID(o)) != b.Object(ratings.ObjectID(o)) {
			return false
		}
	}
	for r := 0; r < a.NumReviews(); r++ {
		if a.Review(ratings.ReviewID(r)) != b.Review(ratings.ReviewID(r)) {
			return false
		}
	}
	for i, rt := range a.Ratings() {
		if rt != b.Ratings()[i] {
			return false
		}
	}
	for i, e := range a.TrustEdges() {
		if e != b.TrustEdges()[i] {
			return false
		}
	}
	return true
}

// writeLog returns d's event stream as one log.
func writeLog(t testing.TB, d *ratings.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := AppendDataset(NewLogWriter(&buf), d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replayLog reads and replays a whole log into a dataset.
func replayLog(raw []byte) (*ratings.Dataset, error) {
	events, err := ReadLog(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	b := ratings.NewBuilder()
	if err := Replay(events, b); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

func TestEventLogRoundTrip(t *testing.T) {
	d := genDataset(t)
	got, err := replayLog(writeLog(t, d))
	if err != nil {
		t.Fatal(err)
	}
	if !datasetsEqual(d, got) {
		t.Error("event log round trip lost data")
	}
}

func TestEventLogEmptyDataset(t *testing.T) {
	raw := writeLog(t, ratings.NewBuilder().Build())
	if len(raw) != 0 {
		t.Fatalf("empty dataset wrote %d bytes", len(raw))
	}
	got, err := replayLog(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumUsers() != 0 || got.NumCategories() != 0 {
		t.Errorf("empty log replayed to %v", got)
	}
}

func TestEventLogChecksumFlip(t *testing.T) {
	raw := writeLog(t, genDataset(t))
	raw[len(raw)-1] ^= 0x01 // corrupt the final record's checksum itself
	if _, err := replayLog(raw); !errors.Is(err, ErrChecksum) {
		t.Errorf("error = %v, want ErrChecksum", err)
	}
}

func TestEventLogIncrementalAppend(t *testing.T) {
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	events := []Event{
		{Kind: EvAddCategory, Name: "movies"},
		{Kind: EvAddUser, Name: "alice"},
		{Kind: EvAddUser, Name: "bob"},
		{Kind: EvAddObject, Category: 0, Name: "m1"},
		{Kind: EvAddReview, User: 0, Object: 0},
		{Kind: EvAddRating, User: 1, Review: 0, Level: 4},
		{Kind: EvAddTrust, User: 1, To: 0},
	}
	for _, ev := range events {
		if err := lw.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	b := ratings.NewBuilder()
	if err := Replay(got, b); err != nil {
		t.Fatal(err)
	}
	d := b.Build()
	if d.NumUsers() != 2 || d.NumRatings() != 1 || d.NumTrustEdges() != 1 {
		t.Errorf("replayed dataset wrong: %v", d)
	}
	if d.Ratings()[0].Value != 0.8 {
		t.Errorf("rating value = %v, want 0.8 (level 4)", d.Ratings()[0].Value)
	}
}

func TestEventLogCorruption(t *testing.T) {
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	if err := lw.Append(Event{Kind: EvAddUser, Name: "u"}); err != nil {
		t.Fatal(err)
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[2] ^= 0xFF // corrupt payload
	if _, err := ReadLog(bytes.NewReader(raw)); !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrCorrupt) {
		t.Errorf("error = %v, want checksum/corrupt", err)
	}
}

func TestEventLogTruncation(t *testing.T) {
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	_ = lw.Append(Event{Kind: EvAddUser, Name: "u"})
	firstEnd := -1
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	firstEnd = buf.Len()
	_ = lw.Append(Event{Kind: EvAddUser, Name: "v"})
	_ = lw.Flush()
	raw := buf.Bytes()
	// Cut the log at every point inside the second record: each cut must
	// yield the intact first event plus ErrTruncated at its exact end.
	for cut := firstEnd + 1; cut < len(raw); cut++ {
		events, err := ReadLog(bytes.NewReader(raw[:cut]))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: error = %v, want ErrTruncated", cut, err)
		}
		var trunc *TruncatedError
		if !errors.As(err, &trunc) {
			t.Fatalf("cut %d: error %T does not carry the offset", cut, err)
		}
		if trunc.Offset != int64(firstEnd) {
			t.Errorf("cut %d: last good offset = %d, want %d", cut, trunc.Offset, firstEnd)
		}
		if len(events) != 1 {
			t.Errorf("cut %d: expected the intact first record, got %d", cut, len(events))
		}
	}
	// A clean cut at a record boundary is not truncation.
	if _, err := ReadLog(bytes.NewReader(raw[:firstEnd])); err != nil {
		t.Errorf("boundary cut: %v", err)
	}
}

func TestReadLogFromResume(t *testing.T) {
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	all := []Event{
		{Kind: EvAddCategory, Name: "movies"},
		{Kind: EvAddUser, Name: "alice"},
		{Kind: EvAddUser, Name: "bob"},
		{Kind: EvAddObject, Category: 0, Name: "m1"},
		{Kind: EvAddReview, User: 0, Object: 0},
		{Kind: EvAddRating, User: 1, Review: 0, Level: 4},
	}
	for _, ev := range all[:3] {
		if err := lw.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	batch1, off1, err := ReadLogFrom(bytes.NewReader(buf.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch1) != 3 || off1 != int64(buf.Len()) {
		t.Fatalf("first tail: %d events, offset %d (log is %d bytes)", len(batch1), off1, buf.Len())
	}
	// Append more, including a torn final record, and resume from off1.
	for _, ev := range all[3:] {
		if err := lw.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	whole := buf.Len()
	buf.Write([]byte{0x09, 0x02}) // torn: length prefix + partial payload
	batch2, off2, err := ReadLogFrom(bytes.NewReader(buf.Bytes()), off1)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("torn tail: error = %v, want ErrTruncated", err)
	}
	if len(batch2) != 3 || off2 != int64(whole) {
		t.Fatalf("resumed tail: %d events, offset %d, want 3 events at %d", len(batch2), off2, whole)
	}
	got := append(append([]Event(nil), batch1...), batch2...)
	for i := range all {
		if got[i] != all[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], all[i])
		}
	}
}

func TestReplayValidationError(t *testing.T) {
	b := ratings.NewBuilder()
	err := Replay([]Event{{Kind: EvAddRating, User: 0, Review: 0, Level: 3}}, b)
	if err == nil {
		t.Error("replay of dangling rating should fail")
	}
	err = Replay([]Event{{Kind: EventKind(99)}}, ratings.NewBuilder())
	if !errors.Is(err, ErrUnknownEvent) {
		t.Errorf("error = %v, want ErrUnknownEvent", err)
	}
	b2 := ratings.NewBuilder()
	b2.AddCategory("c")
	b2.AddUser("w")
	b2.AddUser("r")
	obj, _ := b2.AddObject(0, "")
	if _, err := b2.AddReview(0, obj); err != nil {
		t.Fatal(err)
	}
	err = Replay([]Event{{Kind: EvAddRating, User: 1, Review: 0, Level: 9}}, b2)
	if !errors.Is(err, ratings.ErrInvalidRating) {
		t.Errorf("error = %v, want ErrInvalidRating", err)
	}
}

func TestLogWriterUnknownKind(t *testing.T) {
	lw := NewLogWriter(io.Discard)
	if err := lw.Append(Event{Kind: EventKind(42)}); !errors.Is(err, ErrUnknownEvent) {
		t.Errorf("error = %v, want ErrUnknownEvent", err)
	}
}

// TestCSVRoundTrip parses every section ExportCSV writes back into
// fields and checks them against the dataset, record for record.
func TestCSVRoundTrip(t *testing.T) {
	d := genDataset(t)
	var users, objects, reviews, ratingsBuf, trust bytes.Buffer
	err := ExportCSV(CSVWriters{
		Users: &users, Objects: &objects, Reviews: &reviews,
		Ratings: &ratingsBuf, Trust: &trust,
	}, d)
	if err != nil {
		t.Fatal(err)
	}
	var want [5][][]string
	for u := 0; u < d.NumUsers(); u++ {
		want[0] = append(want[0], []string{strconv.Itoa(u), d.UserName(ratings.UserID(u))})
	}
	for o := 0; o < d.NumObjects(); o++ {
		obj := d.Object(ratings.ObjectID(o))
		want[1] = append(want[1], []string{strconv.Itoa(o), d.CategoryName(obj.Category), obj.Name})
	}
	for r := 0; r < d.NumReviews(); r++ {
		rev := d.Review(ratings.ReviewID(r))
		want[2] = append(want[2], []string{strconv.Itoa(r), strconv.Itoa(int(rev.Writer)), strconv.Itoa(int(rev.Object))})
	}
	for _, rt := range d.Ratings() {
		want[3] = append(want[3], []string{strconv.Itoa(int(rt.Rater)), strconv.Itoa(int(rt.Review)), strconv.FormatFloat(rt.Value, 'g', -1, 64)})
	}
	for _, e := range d.TrustEdges() {
		want[4] = append(want[4], []string{strconv.Itoa(int(e.From)), strconv.Itoa(int(e.To))})
	}
	for i, sec := range []struct {
		name   string
		buf    *bytes.Buffer
		header string
	}{
		{"users", &users, "id,name"},
		{"objects", &objects, "id,category,name"},
		{"reviews", &reviews, "id,writer,object"},
		{"ratings", &ratingsBuf, "rater,review,value"},
		{"trust", &trust, "from,to"},
	} {
		recs, err := csv.NewReader(sec.buf).ReadAll()
		if err != nil {
			t.Fatalf("%s: %v", sec.name, err)
		}
		if got := strings.Join(recs[0], ","); got != sec.header {
			t.Errorf("%s header = %q, want %q", sec.name, got, sec.header)
		}
		if !reflect.DeepEqual(recs[1:], want[i]) {
			t.Errorf("%s: %d rows do not match the dataset's %d records", sec.name, len(recs)-1, len(want[i]))
		}
	}
}

// Property: the log round trip is lossless for arbitrary random
// datasets.
func TestEventLogRoundTripQuick(t *testing.T) {
	f := func(seed uint64) bool {
		d := randomDataset(seed)
		got, err := replayLog(writeLog(t, d))
		return err == nil && datasetsEqual(d, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestEventLogAnyBitFlipRejected flips every bit of a valid log in turn.
// Each flip must fail ReadLog with ErrChecksum or ErrCorrupt, read as a
// torn tail (ErrTruncated), or replay to the very same dataset: no flip
// may replay to a different one.
func TestEventLogAnyBitFlipRejected(t *testing.T) {
	d := randomDataset(7)
	raw := writeLog(t, d)
	var rejected, torn int
	for pos := range raw {
		for bit := 0; bit < 8; bit++ {
			flipped := bytes.Clone(raw)
			flipped[pos] ^= 1 << bit
			got, err := replayLog(flipped)
			switch {
			case errors.Is(err, ErrChecksum) || errors.Is(err, ErrCorrupt):
				rejected++
			case errors.Is(err, ErrTruncated):
				torn++
			case err != nil:
				t.Fatalf("byte %d bit %d: error %v is not ErrChecksum, ErrCorrupt or ErrTruncated", pos, bit, err)
			case !datasetsEqual(d, got):
				t.Fatalf("byte %d bit %d: flipped log replayed to a different dataset", pos, bit)
			}
		}
	}
	t.Logf("%d-byte log: %d flips rejected, %d read as torn", len(raw), rejected, torn)
}

func randomDataset(seed uint64) *ratings.Dataset {
	rng := stats.NewRand(seed)
	b := ratings.NewBuilder()
	numCats := 1 + rng.IntN(3)
	for c := 0; c < numCats; c++ {
		b.AddCategory("")
	}
	numUsers := 2 + rng.IntN(10)
	b.AddUsers(numUsers)
	numObjects := 1 + rng.IntN(8)
	for o := 0; o < numObjects; o++ {
		if _, err := b.AddObject(ratings.CategoryID(rng.IntN(numCats)), ""); err != nil {
			panic(err)
		}
	}
	var reviews []ratings.ReviewID
	for k := 0; k < rng.IntN(20); k++ {
		w := ratings.UserID(rng.IntN(numUsers))
		o := ratings.ObjectID(rng.IntN(numObjects))
		if b.HasReview(w, o) {
			continue
		}
		id, err := b.AddReview(w, o)
		if err != nil {
			panic(err)
		}
		reviews = append(reviews, id)
	}
	for k := 0; k < rng.IntN(50) && len(reviews) > 0; k++ {
		rater := ratings.UserID(rng.IntN(numUsers))
		rev := reviews[rng.IntN(len(reviews))]
		if b.HasRating(rater, rev) {
			continue
		}
		_ = b.AddRating(rater, rev, ratings.QuantizeRating(rng.Float64()))
	}
	for k := 0; k < rng.IntN(15); k++ {
		from := ratings.UserID(rng.IntN(numUsers))
		to := ratings.UserID(rng.IntN(numUsers))
		if from != to && !b.HasTrust(from, to) {
			_ = b.AddTrust(from, to)
		}
	}
	return b.Build()
}
