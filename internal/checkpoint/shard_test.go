package checkpoint

// Tests for checkpoints in a sharded deployment: a bundle holds the
// complete model whatever shard wrote it, so it restores under any shard
// spec and any web policy, and Update continues from it exactly as from
// the model it checkpoints. Format-version-2 bundles written before that
// rule (testdata/) restore only when they were unsharded.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"weboftrust"
	"weboftrust/internal/ratings"
	"weboftrust/internal/store"
)

// restoredMatchesFresh asserts that got serves every value want does
// (see modelsEqual) and answers for exactly the sources want owns.
func restoredMatchesFresh(t *testing.T, want, got *weboftrust.TrustModel) {
	t.Helper()
	wi, wc := want.ShardSpec()
	gi, gc := got.ShardSpec()
	if wi != gi || wc != gc {
		t.Fatalf("shard spec: want %d/%d, got %d/%d", wi, wc, gi, gc)
	}
	for u := 0; u < want.Dataset().NumUsers(); u++ {
		if want.Owns(ratings.UserID(u)) != got.Owns(ratings.UserID(u)) {
			t.Fatalf("Owns(%d): want %v", u, want.Owns(ratings.UserID(u)))
		}
	}
	modelsEqual(t, want, got)
}

// TestShardedRestoreTailEqualsFreshDerive is the sharded warm-restart
// property: a checkpoint written by a shard restores bitwise, and Update
// continues from the restored model exactly as it would from the
// original — ending at the model a fresh sharded Derive over the grown
// dataset produces.
func TestShardedRestoreTailEqualsFreshDerive(t *testing.T) {
	d := smallDataset(t)
	dir := t.TempDir()
	logPath := writeLog(t, dir, d)
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	events, _, err := store.ReadLogFrom(bytes.NewReader(raw), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 60 {
		t.Fatalf("only %d events", len(events))
	}
	split := len(events) - 40
	b := ratings.NewBuilder()
	if err := store.Replay(events[:split], b); err != nil {
		t.Fatal(err)
	}
	d0 := b.Snapshot()
	if err := store.Replay(events[split:], b); err != nil {
		t.Fatal(err)
	}
	d1 := b.Snapshot()

	for _, spec := range [][2]int{{0, 2}, {2, 3}} {
		opts := []weboftrust.Option{weboftrust.WithShard(spec[0], spec[1])}
		m0, err := weboftrust.Derive(d0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, m0, 100, 100); err != nil {
			t.Fatal(err)
		}
		restored, info, err := Read(bytes.NewReader(buf.Bytes()), opts...)
		if err != nil {
			t.Fatalf("shard %v: %v", spec, err)
		}
		if info.Offset != 100 {
			t.Fatalf("offset %d, want 100", info.Offset)
		}
		restoredMatchesFresh(t, m0, restored)

		up, err := restored.Update(d1)
		if err != nil {
			t.Fatalf("shard %v update after restore: %v", spec, err)
		}
		fresh, err := weboftrust.Derive(d1, opts...)
		if err != nil {
			t.Fatal(err)
		}
		restoredMatchesFresh(t, fresh, up)
	}
}

// TestBundleRestoresUnderAnySpec pins that a bundle restores under any
// shard spec, whatever spec wrote it: one written by shard 0/3 restores as
// 1/3, as 1/4 and as an unsharded model, and an unsharded one restores as
// 1/3, each serving exactly what a fresh Derive under the restoring
// options serves.
func TestBundleRestoresUnderAnySpec(t *testing.T) {
	d := smallDataset(t)
	bundle := func(opts ...weboftrust.Option) []byte {
		t.Helper()
		m, err := weboftrust.Derive(d, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, m, 0, 0); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	sharded := bundle(weboftrust.WithShard(0, 3))
	unsharded := bundle()

	cases := []struct {
		name string
		raw  []byte
		opts []weboftrust.Option
	}{
		{"sharded bundle, other index", sharded, []weboftrust.Option{weboftrust.WithShard(1, 3)}},
		{"sharded bundle, other count", sharded, []weboftrust.Option{weboftrust.WithShard(1, 4)}},
		{"sharded bundle, unsharded serving", sharded, nil},
		{"unsharded bundle, sharded serving", unsharded, []weboftrust.Option{weboftrust.WithShard(1, 3)}},
	}
	for _, tc := range cases {
		restored, _, err := Read(bytes.NewReader(tc.raw), tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fresh, err := weboftrust.Derive(d, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		restoredMatchesFresh(t, fresh, restored)
	}
}

// TestBundleRestoresUnderAnyWebPolicy pins that a sharded bundle restores
// under a web policy other than the one it was written with, serving
// exactly what a fresh Derive under the restoring policy serves.
func TestBundleRestoresUnderAnyWebPolicy(t *testing.T) {
	d := smallDataset(t)
	written, err := weboftrust.Derive(d, weboftrust.WithShard(0, 2), weboftrust.WithWebColdStartGenerosity(0.2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, written, 0, 0); err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]weboftrust.Option{
		{weboftrust.WithShard(0, 2), weboftrust.WithWebColdStartGenerosity(0.2)},
		{weboftrust.WithShard(0, 2)},
		{weboftrust.WithShard(1, 2), weboftrust.WithWebThreshold(0.5)},
		{weboftrust.WithWebThreshold(0.5)},
	} {
		restored, _, err := Read(bytes.NewReader(buf.Bytes()), opts...)
		if err != nil {
			t.Fatalf("%d options: %v", len(opts), err)
		}
		fresh, err := weboftrust.Derive(d, opts...)
		if err != nil {
			t.Fatal(err)
		}
		restoredMatchesFresh(t, fresh, restored)
	}
}

// TestReadVersion2Bundles pins the reading rule for format version 2 on
// bundles that version's writer produced (testdata/): the unsharded one
// restores under any spec, bitwise a fresh Derive over its dataset, and
// the one written by shard 1/3 — which held only that shard's rows —
// fails with ErrBadVersion under any options.
func TestReadVersion2Bundles(t *testing.T) {
	asShard1of3 := []weboftrust.Option{weboftrust.WithShard(1, 3)}
	restored, info, err := ReadFile(filepath.Join("testdata", "v2-unsharded.wck"), asShard1of3...)
	if err != nil {
		t.Fatal(err)
	}
	if info.Offset == 0 || info.LogSize != info.Offset {
		t.Fatalf("info = %+v, want the recorded log end", info)
	}
	fresh, err := weboftrust.Derive(restored.Dataset(), asShard1of3...)
	if err != nil {
		t.Fatal(err)
	}
	restoredMatchesFresh(t, fresh, restored)

	for _, opts := range [][]weboftrust.Option{nil, asShard1of3} {
		_, _, err := ReadFile(filepath.Join("testdata", "v2-shard-1of3.wck"), opts...)
		if !errors.Is(err, ErrBadVersion) {
			t.Fatalf("%d options: err = %v, want ErrBadVersion", len(opts), err)
		}
	}
}
