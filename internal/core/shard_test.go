package core

// Sharding is a serving filter only: a config naming any shard runs and
// updates the complete model, bitwise the unsharded one. The facade's
// ownership contract (TrustModel.Owns) is pinned in the root package's
// tests.

import (
	"bytes"
	"fmt"
	"testing"

	"weboftrust/internal/shard"
	"weboftrust/internal/store"
)

// TestShardEquivalence pins that for N ∈ {2, 3}, serial and parallel,
// every shard's artifacts — Riggs results, E, A, the derived-trust rows,
// the graph and generosity — equal the unsharded model's bitwise, from
// the cold Run and again after an incremental Update folds in new events.
func TestShardEquivalence(t *testing.T) {
	raw := logCommunity(t)
	_, d0, _ := replayAll(t, raw)

	var buf bytes.Buffer
	buf.Write(raw)
	lw := store.NewLogWriter(&buf)
	for _, ev := range growthEvents(d0, 11, true) {
		if err := lw.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	_, d1, _ := replayAll(t, buf.Bytes())

	refCfg := DefaultConfig()
	ref0, err := refCfg.Run(d0)
	if err != nil {
		t.Fatal(err)
	}
	ref1, err := refCfg.Update(ref0, d0, d1)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 0} {
		for _, count := range []int{2, 3} {
			for idx := 0; idx < count; idx++ {
				cfg := DefaultConfig()
				cfg.Workers = workers
				cfg.Shard = shard.Spec{Index: idx, Count: count}
				label := fmt.Sprintf("workers=%d shard %v", workers, cfg.Shard)

				art0, err := cfg.Run(d0)
				if err != nil {
					t.Fatalf("%s run: %v", label, err)
				}
				requireSameArtifacts(t, label+" run", ref0, art0, d0)
				websEqual(t, ref0.Web, art0.Web)

				art1, err := cfg.Update(art0, d0, d1)
				if err != nil {
					t.Fatalf("%s update: %v", label, err)
				}
				requireSameArtifacts(t, label+" update", ref1, art1, d1)
				websEqual(t, ref1.Web, art1.Web)
			}
		}
	}
}
