package server

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"weboftrust"
	"weboftrust/internal/checkpoint"
	"weboftrust/internal/ratings"
	"weboftrust/internal/store"
)

// serversAgree asserts two servers answer /v1/topk, /v1/trust and
// /v1/expertise identically for every user (bitwise, via the JSON bodies).
func serversAgree(t *testing.T, a, b *Server) {
	t.Helper()
	ha, hb := a.Handler(), b.Handler()
	ma, _, _ := a.Current()
	mb, _, _ := b.Current()
	if ma.Dataset().NumUsers() != mb.Dataset().NumUsers() {
		t.Fatalf("user counts differ: %d vs %d", ma.Dataset().NumUsers(), mb.Dataset().NumUsers())
	}
	numU := ma.Dataset().NumUsers()
	for u := 0; u < numU; u++ {
		for _, url := range []string{
			"/v1/topk?user=" + strconv.Itoa(u) + "&k=10",
			"/v1/expertise?user=" + strconv.Itoa(u),
			"/v1/trust?from=" + strconv.Itoa(u) + "&to=" + strconv.Itoa((u+7)%numU),
			// The graph surfaces exercise the restored side's lazily
			// rebuilt web of trust, which must match the eager one.
			"/v1/neighbors?user=" + strconv.Itoa(u),
			"/v1/propagate?algo=appleseed&user=" + strconv.Itoa(u) + "&k=10",
		} {
			ra, rb := get(t, ha, url), get(t, hb, url)
			if ra.Code != http.StatusOK || rb.Code != http.StatusOK {
				t.Fatalf("%s: status %d vs %d", url, ra.Code, rb.Code)
			}
			// Bodies embed the model version, which may legitimately
			// differ between a cold and warm boot; strip it.
			ba := stripVersion(ra.Body.String())
			bb := stripVersion(rb.Body.String())
			if ba != bb {
				t.Fatalf("%s: body mismatch\ncold: %s\nwarm: %s", url, ba, bb)
			}
		}
	}
}

func stripVersion(body string) string {
	i := strings.Index(body, `"version":`)
	if i < 0 {
		return body
	}
	j := strings.IndexAny(body[i:], ",}")
	return body[:i] + body[i+j:]
}

// appendEvents appends a small batch (a new user writing one rated
// review) and returns how many events were written.
func appendGrowth(t *testing.T, path string, d *ratings.Dataset, extraUsers int) int {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	lw := store.NewLogWriter(f)
	n := 0
	users := d.NumUsers() + extraUsers
	objects := d.NumObjects() + extraUsers
	reviews := d.NumReviews() + extraUsers
	for _, ev := range []store.Event{
		{Kind: store.EvAddUser, Name: ""},
		{Kind: store.EvAddObject, Category: 0, Name: ""},
		{Kind: store.EvAddReview, User: ratings.UserID(users), Object: ratings.ObjectID(objects)},
		{Kind: store.EvAddRating, User: 1, Review: ratings.ReviewID(reviews), Level: 4},
	} {
		if err := lw.Append(ev); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestOpenCheckpointedColdPaths(t *testing.T) {
	path, _ := writeLogFile(t)

	// Empty dir string: exactly Open.
	srv, _, info, err := OpenCheckpointedInto(nil, path, "", time.Hour, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Warm || info.FallbackReason != "" {
		t.Fatalf("empty dir: info = %+v", info)
	}

	// A directory with no checkpoints: cold with a reason.
	srv2, _, info2, err := OpenCheckpointedInto(nil, path, filepath.Join(t.TempDir(), "ckpts"), time.Hour, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info2.Warm || info2.FallbackReason == "" {
		t.Fatalf("no checkpoints: info = %+v", info2)
	}
	serversAgree(t, srv, srv2)
}

func TestOpenCheckpointedWarmMatchesCold(t *testing.T) {
	path, d := writeLogFile(t)
	dir := filepath.Join(t.TempDir(), "ckpts")

	// Cold stack writes a checkpoint of its full state.
	cold, _, err := Open(path, time.Hour, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ck := NewCheckpointer(cold, dir, time.Hour, 2)
	if _, wrote, err := ck.WriteNow(); err != nil || !wrote {
		t.Fatalf("WriteNow = (%v, %v)", wrote, err)
	}

	// Grow the log past the checkpoint; the warm boot must restore and
	// tail the difference.
	tailed := appendGrowth(t, path, d, 0)

	warm, warmTailer, info, err := OpenCheckpointedInto(nil, path, dir, time.Hour, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Warm {
		t.Fatalf("boot went cold: %+v", info)
	}
	if info.TailedEvents != tailed {
		t.Fatalf("tailed %d events, want %d", info.TailedEvents, tailed)
	}

	// The warm boot seeds the durability surface from the restored file,
	// so stats report it immediately.
	stats := decode[StatsResponse](t, get(t, warm.Handler(), "/v1/stats"))
	if stats.Checkpoint == nil || stats.Checkpoint.Path != info.CheckpointPath {
		t.Fatalf("warm boot did not seed checkpoint stats: %+v", stats.Checkpoint)
	}

	// Reference: a fresh cold boot over the grown log.
	cold2, _, err := Open(path, time.Hour, Options{})
	if err != nil {
		t.Fatal(err)
	}
	serversAgree(t, cold2, warm)

	// The warm tailer keeps ingesting from where the boot left off.
	appendGrowth(t, path, d, 1)
	n, err := warmTailer.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("poll ingested %d, want 4", n)
	}
}

// TestWarmBootIdleCheckpointerSkipsFirstWrite pins that a warm boot
// against an idle log makes the checkpointer's first tick a no-op: the
// on-disk checkpoint is already current, so rewriting a byte-identical
// one would only burn a sequence number.
func TestWarmBootIdleCheckpointerSkipsFirstWrite(t *testing.T) {
	path, _ := writeLogFile(t)
	dir := filepath.Join(t.TempDir(), "ckpts")
	cold, _, err := Open(path, time.Hour, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p1, wrote, err := NewCheckpointer(cold, dir, time.Hour, 2).WriteNow()
	if err != nil || !wrote {
		t.Fatalf("WriteNow = (%v, %v)", wrote, err)
	}

	warm, _, info, err := OpenCheckpointedInto(nil, path, dir, time.Hour, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Warm {
		t.Fatalf("boot went cold: %+v", info)
	}
	p2, wrote, err := NewCheckpointer(warm, dir, time.Hour, 2).WriteNow()
	if err != nil {
		t.Fatal(err)
	}
	if wrote || p2 != p1 {
		t.Fatalf("idle warm boot rewrote checkpoint: wrote=%v path=%s (restored %s)", wrote, p2, p1)
	}
}

func TestOpenCheckpointedSkipsStaleFingerprint(t *testing.T) {
	path, _ := writeLogFile(t)
	dir := filepath.Join(t.TempDir(), "ckpts")

	// Checkpoint written under a different derivation config.
	cold, _, err := Open(path, time.Hour, Options{}, weboftrust.WithoutExperienceDiscount())
	if err != nil {
		t.Fatal(err)
	}
	if _, wrote, err := NewCheckpointer(cold, dir, time.Hour, 2).WriteNow(); err != nil || !wrote {
		t.Fatalf("WriteNow = (%v, %v)", wrote, err)
	}

	srv, _, info, err := OpenCheckpointedInto(nil, path, dir, time.Hour, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Warm {
		t.Fatal("stale checkpoint restored")
	}
	if !strings.Contains(info.FallbackReason, "fingerprint") {
		t.Fatalf("fallback reason %q does not mention the fingerprint", info.FallbackReason)
	}
	// And the model served matches the options asked for, not the
	// checkpoint's.
	ref, _, err := Open(path, time.Hour, Options{})
	if err != nil {
		t.Fatal(err)
	}
	serversAgree(t, ref, srv)
}

func TestCheckpointerSkipsUnchangedAndSurfacesStatus(t *testing.T) {
	path, d := writeLogFile(t)
	dir := filepath.Join(t.TempDir(), "ckpts")
	srv, tailer, err := Open(path, time.Hour, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ck := NewCheckpointer(srv, dir, time.Hour, 2)

	if _, wrote, err := ck.WriteNow(); err != nil || !wrote {
		t.Fatalf("first WriteNow = (%v, %v)", wrote, err)
	}
	if _, wrote, err := ck.WriteNow(); err != nil || wrote {
		t.Fatalf("unchanged WriteNow = (%v, %v), want skip", wrote, err)
	}

	// Ingest progress makes the next write real again.
	appendGrowth(t, path, d, 0)
	if _, err := tailer.Poll(); err != nil {
		t.Fatal(err)
	}
	p2, wrote, err := ck.WriteNow()
	if err != nil || !wrote {
		t.Fatalf("post-ingest WriteNow = (%v, %v)", wrote, err)
	}
	_, offset, _ := srv.Current()

	// Status is visible in /v1/stats and /metrics.
	stats := decode[StatsResponse](t, get(t, srv.Handler(), "/v1/stats"))
	if stats.Checkpoint == nil {
		t.Fatal("stats missing checkpoint block")
	}
	if stats.Checkpoint.Path != p2 || stats.Checkpoint.Offset != offset {
		t.Fatalf("stats checkpoint = %+v, want %s at %d", stats.Checkpoint, p2, offset)
	}
	if stats.Checkpoint.SizeBytes <= 0 || stats.Checkpoint.AgeSeconds < 0 {
		t.Fatalf("implausible checkpoint stats: %+v", stats.Checkpoint)
	}
	body := get(t, srv.Handler(), "/metrics").Body.String()
	for _, want := range []string{
		"trustd_checkpoint_writes_total 2",
		"trustd_checkpoint_errors_total 0",
		"trustd_checkpoint_last_offset_bytes",
		"trustd_checkpoint_size_bytes",
		"trustd_checkpoint_age_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestCheckpointerFinalWriteOnShutdown(t *testing.T) {
	path, _ := writeLogFile(t)
	dir := filepath.Join(t.TempDir(), "ckpts")
	srv, _, err := Open(path, time.Hour, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ck := NewCheckpointer(srv, dir, time.Hour, 2)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ck.Run(ctx) }()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancel")
	}

	// The shutdown flush left a restorable checkpoint.
	_, info, err := checkpoint.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, srvOffset, _ := srv.Current()
	if info.Offset != srvOffset {
		t.Fatalf("final checkpoint at %d, server at %d", info.Offset, srvOffset)
	}
}

// TestOpenCheckpointedVersion2Bundles boots a shard over an unsharded
// bundle written in checkpoint format version 2
// (internal/checkpoint/testdata): the reader restores version 3 only, so
// the boot replays the log cold and says why.
func TestOpenCheckpointedVersion2Bundles(t *testing.T) {
	path, _ := writeLogFile(t)
	raw, err := os.ReadFile(filepath.Join("..", "checkpoint", "testdata", "v2-unsharded.wck"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ckpt-0000000000000001.wck"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, bi, err := OpenCheckpointedInto(nil, path, dir, time.Hour, Options{}, weboftrust.WithShard(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if bi.Warm || !strings.Contains(bi.FallbackReason, "unsupported format version") {
		t.Fatalf("v2 bundle: boot %+v, want cold naming the format version", bi)
	}
}
