package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"weboftrust"
	"weboftrust/internal/ratings"
	"weboftrust/internal/store"
	"weboftrust/internal/synth"
)

// smallDataset generates the Small synthetic community once per test
// binary.
func smallDataset(t testing.TB) *ratings.Dataset {
	t.Helper()
	cfg := synth.Small()
	cfg.Seed = 7
	d, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// writeLog writes the dataset's events to a fresh log file and returns
// its path.
func writeLog(t testing.TB, dir string, d *ratings.Dataset) string {
	t.Helper()
	path := filepath.Join(dir, "events.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	lw := store.NewLogWriter(f)
	if err := store.AppendDataset(lw, d); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// modelsEqual asserts that every value the serving endpoints read —
// /v1/trust scores for all pairs, /v1/topk rankings, /v1/expertise
// profiles — is bitwise identical between two models.
func modelsEqual(t *testing.T, want, got *weboftrust.TrustModel) {
	t.Helper()
	wd, gd := want.Dataset(), got.Dataset()
	if wd.NumUsers() != gd.NumUsers() || wd.NumCategories() != gd.NumCategories() ||
		wd.NumReviews() != gd.NumReviews() || wd.NumRatings() != gd.NumRatings() {
		t.Fatalf("dataset shape differs: want %v, got %v", wd, gd)
	}
	numU := wd.NumUsers()
	for i := 0; i < numU; i++ {
		ui := weboftrust.UserID(i)
		we, ge := want.Expertise(ui), got.Expertise(ui)
		wa, ga := want.Affinity(ui), got.Affinity(ui)
		for c := range we {
			if we[c] != ge[c] {
				t.Fatalf("expertise[%d][%d]: want %v, got %v", i, c, we[c], ge[c])
			}
			if wa[c] != ga[c] {
				t.Fatalf("affinity[%d][%d]: want %v, got %v", i, c, wa[c], ga[c])
			}
		}
		for j := 0; j < numU; j++ {
			if w, g := want.Score(ui, weboftrust.UserID(j)), got.Score(ui, weboftrust.UserID(j)); w != g {
				t.Fatalf("score[%d][%d]: want %v, got %v", i, j, w, g)
			}
		}
		wt, gt := want.TopTrusted(ui, 10), got.TopTrusted(ui, 10)
		if len(wt) != len(gt) {
			t.Fatalf("topk[%d]: %d vs %d results", i, len(wt), len(gt))
		}
		for k := range wt {
			if wt[k] != gt[k] {
				t.Fatalf("topk[%d][%d]: want %+v, got %+v", i, k, wt[k], gt[k])
			}
		}
	}
	websEqual(t, want.WebOfTrust(), got.WebOfTrust())
}

// websEqual pins the restored (or restored-and-tailed) web-of-trust
// artifact bitwise against the fresh derive's: policy, generosity, every
// edge and weight, and the graph shape the propagation endpoints serve.
func websEqual(t *testing.T, want, got *weboftrust.Web) {
	t.Helper()
	if want == nil || got == nil {
		t.Fatalf("missing web artifact: want %v, got %v", want != nil, got != nil)
	}
	if want.Policy() != got.Policy() || want.NumUsers() != got.NumUsers() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("web shape: want %v %d/%d, got %v %d/%d",
			want.Policy(), want.NumUsers(), want.NumEdges(),
			got.Policy(), got.NumUsers(), got.NumEdges())
	}
	for u := 0; u < want.NumUsers(); u++ {
		uid := ratings.UserID(u)
		if want.Generosity(uid) != got.Generosity(uid) {
			t.Fatalf("generosity[%d]: want %v, got %v", u, want.Generosity(uid), got.Generosity(uid))
		}
		wTo, wW := want.Neighbors(uid)
		gTo, gW := got.Neighbors(uid)
		if len(wTo) != len(gTo) {
			t.Fatalf("web row %d: want %d edges, got %d", u, len(wTo), len(gTo))
		}
		for i := range wTo {
			if wTo[i] != gTo[i] || wW[i] != gW[i] {
				t.Fatalf("web row %d edge %d: want (%d, %v), got (%d, %v)",
					u, i, wTo[i], wW[i], gTo[i], gW[i])
			}
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := smallDataset(t)
	model, err := weboftrust.Derive(d)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, model, 12345, 20000); err != nil {
		t.Fatal(err)
	}
	restored, info, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Offset != 12345 || info.LogSize != 20000 {
		t.Fatalf("info = %+v, want offset 12345, log size 20000", info)
	}
	modelsEqual(t, model, restored)

	// Restored Riggs results answer the secondary queries too.
	wq, wok := model.ReviewQuality(0)
	gq, gok := restored.ReviewQuality(0)
	if wq != gq || wok != gok {
		t.Fatalf("review quality: want (%v, %v), got (%v, %v)", wq, wok, gq, gok)
	}
}

// TestRestoreTailEqualsFreshDerive is the PR's acceptance property: a
// checkpoint of a log prefix, restored and tailed through Update over the
// remaining events, serves values bitwise-identical to a from-scratch
// Derive over the whole log — at every worker-count combination for the
// checkpointing and restoring sides.
func TestRestoreTailEqualsFreshDerive(t *testing.T) {
	d := smallDataset(t)
	dir := t.TempDir()
	logPath := writeLog(t, dir, d)
	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	events, _, err := store.ReadLogFrom(f, 0)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	full, err := weboftrust.Derive(d)
	if err != nil {
		t.Fatal(err)
	}

	for _, split := range []float64{0.5, 0.9, 1.0} {
		cut := int(float64(len(events)) * split)
		for _, wWrite := range []int{1, 4} {
			for _, wRead := range []int{1, 3, 0} {
				t.Run(fmt.Sprintf("split=%v/write=%d/read=%d", split, wWrite, wRead), func(t *testing.T) {
					// Derive the prefix model and checkpoint it.
					b := ratings.NewBuilder()
					if err := store.Replay(events[:cut], b); err != nil {
						t.Fatal(err)
					}
					prefix, err := weboftrust.Derive(b.Build(), weboftrust.WithWorkers(wWrite))
					if err != nil {
						t.Fatal(err)
					}
					var buf bytes.Buffer
					if err := Write(&buf, prefix, int64(cut), int64(cut)); err != nil {
						t.Fatal(err)
					}

					// Restore under a different worker count and tail the rest.
					restored, info, err := Read(bytes.NewReader(buf.Bytes()), weboftrust.WithWorkers(wRead))
					if err != nil {
						t.Fatal(err)
					}
					if info.Offset != int64(cut) {
						t.Fatalf("offset = %d, want %d", info.Offset, cut)
					}
					model := restored
					if cut < len(events) {
						rb := ratings.NewBuilderFrom(restored.Dataset())
						if err := store.Replay(events[cut:], rb); err != nil {
							t.Fatal(err)
						}
						model, err = restored.Update(rb.Snapshot())
						if err != nil {
							t.Fatal(err)
						}
					}
					modelsEqual(t, full, model)
				})
			}
		}
	}
}

func TestReadRejectsStaleFingerprint(t *testing.T) {
	d := smallDataset(t)
	model, err := weboftrust.Derive(d)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, model, 0, 0); err != nil {
		t.Fatal(err)
	}
	_, _, err = Read(bytes.NewReader(buf.Bytes()), weboftrust.WithoutExperienceDiscount())
	if !errors.Is(err, ErrStale) {
		t.Fatalf("err = %v, want ErrStale", err)
	}
	// Worker count is not part of the fingerprint.
	if _, _, err := Read(bytes.NewReader(buf.Bytes()), weboftrust.WithWorkers(3)); err != nil {
		t.Fatalf("workers-only option rejected: %v", err)
	}
}

func TestReadRejectsDamage(t *testing.T) {
	d := smallDataset(t)
	model, err := weboftrust.Derive(d)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, model, 99, 99); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := bytes.Clone(raw)
		bad[0] ^= 0xff
		if _, _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := bytes.Clone(raw)
		bad[8] = 0x7f // version uvarint
		if _, _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("err = %v, want ErrBadVersion", err)
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		bad := bytes.Clone(raw)
		bad[len(bad)/2] ^= 0x10
		_, _, err := Read(bytes.NewReader(bad))
		if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want checksum or corrupt", err)
		}
	})
	t.Run("torn tail", func(t *testing.T) {
		for _, frac := range []int{4, 2, 1} {
			cut := len(raw) - len(raw)/frac
			if cut >= len(raw) {
				cut = len(raw) - 1
			}
			_, _, err := Read(bytes.NewReader(raw[:cut]))
			if err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	})
}

// seal returns raw with its trailing CRC-32C recomputed over the bytes
// between the magic and the checksum, so a forged or mutated bundle gets
// past the checksum to the section decoders. Inputs too short to hold a
// magic and a checksum come back unchanged.
func seal(raw []byte) []byte {
	if len(raw) < len(magic)+checksumLen {
		return raw
	}
	out := bytes.Clone(raw)
	end := len(out) - checksumLen
	binary.LittleEndian.PutUint32(out[end:], crc32.Checksum(out[len(magic):end], castagnoli))
	return out
}

// TestForgedCountsFailFastWithoutAllocation hand-crafts a valid header
// followed by a section declaring an absurd size, seals it with a valid
// checksum, and asserts decoding fails quickly and cleanly on that very
// section — the adversarial-input hardening the count bounds exist for.
func TestForgedCountsFailFastWithoutAllocation(t *testing.T) {
	forge := func(section func(b []byte) []byte) []byte {
		b := append([]byte(nil), magic[:]...)
		b = binary.AppendUvarint(b, formatVersion)
		b = binary.LittleEndian.AppendUint64(b, 0) // fingerprint
		b = binary.AppendUvarint(b, 0)             // offset
		b = binary.AppendUvarint(b, 0)             // log size
		b = section(b)
		return seal(binary.LittleEndian.AppendUint32(b, 0))
	}
	img := ratings.AppendImage(nil, smallDataset(t))

	for _, tc := range []struct {
		name, section string
		forged        func(b []byte) []byte
	}{
		{"huge dataset length", "dataset section", func(b []byte) []byte { return binary.AppendUvarint(b, 1<<40) }},
		// A length that would fit in memory, but the bundle ends right
		// after it: the bound is the bytes present, not a cap.
		{"dataset length beyond stream", "dataset section", func(b []byte) []byte { return binary.AppendUvarint(b, 1<<28) }},
		{"huge riggs review count", "reviews count", func(b []byte) []byte {
			b = binary.AppendUvarint(b, uint64(len(img)))
			b = append(b, img...)
			return binary.AppendUvarint(b, 1<<50) // reviews count for category 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Read(bytes.NewReader(forge(tc.forged)))
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.section) {
				t.Fatalf("err = %v, want ErrCorrupt naming the %s", err, tc.section)
			}
		})
	}
}

func TestWriteDirRestorePrune(t *testing.T) {
	d := smallDataset(t)
	model, err := weboftrust.Derive(d)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ckpts")

	p1, err := WriteDir(dir, model, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := WriteDir(dir, model, 20, 25)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p1) >= filepath.Base(p2) {
		t.Fatalf("sequence not increasing: %s then %s", p1, p2)
	}

	_, info, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Path != p2 || info.Offset != 20 || info.LogSize != 25 {
		t.Fatalf("restored %+v, want %s at 20 (log size 25)", info, p2)
	}

	if err := Prune(dir, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(p1); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("pruned file still present: %v", err)
	}
	if _, err := os.Stat(p2); err != nil {
		t.Fatalf("newest checkpoint pruned: %v", err)
	}

	if _, _, err := Restore(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: err = %v, want ErrNoCheckpoint", err)
	}
	if _, _, err := Restore(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing dir: err = %v, want ErrNoCheckpoint", err)
	}
}

// TestInfoResume pins the log-rewrite detection rule, including the
// equality corner an offset-only rule got wrong: a remainder exactly as
// long as the folded prefix must still read as "compacted here".
func TestInfoResume(t *testing.T) {
	cases := []struct {
		name        string
		info        Info
		currentSize int64
		want        int64
	}{
		{"steady tail", Info{Offset: 100, LogSize: 150}, 150, 100},
		{"log grew", Info{Offset: 100, LogSize: 150}, 900, 100},
		{"checkpoint at log end", Info{Offset: 150, LogSize: 150}, 150, 150},
		{"compacted, empty remainder", Info{Offset: 100, LogSize: 150}, 0, 0},
		{"compacted, remainder equals folded prefix", Info{Offset: 100, LogSize: 200}, 100, 0},
		{"rebased post-compact", Info{Offset: 0, LogSize: 50}, 50, 0},
	}
	for _, c := range cases {
		if got := c.info.Resume(c.currentSize); got != c.want {
			t.Errorf("%s: Resume(%d) on %+v = %d, want %d", c.name, c.currentSize, c.info, got, c.want)
		}
	}
}

func TestParseSeq(t *testing.T) {
	cases := []struct {
		name string
		seq  uint64
		ok   bool
	}{
		{fileName(42), 42, true},
		{fileName(1), 1, true},
		{"ckpt-0000000000000001.wck.tmp", 0, false},
		{"ckpt-.wck", 0, false},
		{"ckpt-abc.wck", 0, false},
		{"events.log", 0, false},
	}
	for _, c := range cases {
		seq, ok := parseSeq(c.name)
		if ok != c.ok || seq != c.seq {
			t.Errorf("parseSeq(%q) = (%d, %v), want (%d, %v)", c.name, seq, ok, c.seq, c.ok)
		}
	}
}
