package core

import (
	"fmt"

	"weboftrust/internal/graph"
	"weboftrust/internal/mat"
	"weboftrust/internal/par"
	"weboftrust/internal/riggs"
	"weboftrust/internal/shard"
)

// This file implements the shard-by-source retention transform. The
// pipeline always computes the complete model — the Riggs fixed points
// and E aggregate every user's events, and the replicated CSR graph
// needs every user's selected edges — so sharding changes what Run and
// Update KEEP, not what they compute: after the full (transient) build,
// dense per-source-user state is compacted to the rows the shard owns.
// Because the retained rows are references to (or exact copies of) the
// full build's rows, a shard's answers for owned sources are bitwise
// what an unsharded process serves — the property the cluster equals one
// endpoint on, pinned by TestShardEquivalence and the router harness.

// shardRowIndex builds the user-id -> compact-row mapping for a spec:
// owned users get ascending dense indices, everyone else -1.
func shardRowIndex(spec shard.Spec, numUsers int) (rowIndex []int32, owned int) {
	rowIndex = make([]int32, numUsers)
	for u := 0; u < numUsers; u++ {
		if spec.Owns(u) {
			rowIndex[u] = int32(owned)
			owned++
		} else {
			rowIndex[u] = -1
		}
	}
	return rowIndex, owned
}

// shardArtifacts compacts freshly built full artifacts down to the dense
// state the shard retains: the affinity matrix keeps only owned rows
// (copied bitwise), the web keeps only owned edge rows (the complete
// graph already holds the rest), and everything global — Riggs results,
// E, the expert index, row sums, generosity — is shared with the full
// build unchanged.
func shardArtifacts(art *Artifacts, spec shard.Spec) *Artifacts {
	spec = spec.Canon()
	dt := art.Trust
	numU := dt.NumUsers()
	rowIndex, owned := shardRowIndex(spec, numU)
	compact := mat.NewDense(owned, dt.NumCategories())
	for u := 0; u < numU; u++ {
		if r := rowIndex[u]; r >= 0 {
			copy(compact.Row(int(r)), dt.affinity.Row(u))
		}
	}
	sdt := &DerivedTrust{
		affinity:          compact,
		expertise:         dt.expertise,
		rowSum:            dt.rowSum,
		expertsByCategory: dt.expertsByCategory,
		expertLists:       dt.expertLists,
		expertScores:      dt.expertScores,
		affinityNNZ:       dt.affinityNNZ,
		numUsers:          numU,
		spec:              spec,
		rowIndex:          rowIndex,
	}
	return &Artifacts{
		RiggsResults: art.RiggsResults,
		Expertise:    art.Expertise,
		Affinity:     compact,
		Trust:        sdt,
		Web:          art.Web.withShard(spec),
	}
}

// withShard drops the dense rows of users the shard does not own; their
// edges remain reachable through the replicated graph (see Web.rowAt).
func (w *Web) withShard(spec shard.Spec) *Web {
	rows := make([]WebRow, len(w.rows))
	for u := range w.rows {
		if spec.Owns(u) {
			rows[u] = w.rows[u]
		}
	}
	return &Web{
		policy:     w.policy,
		generosity: w.generosity,
		rows:       rows,
		g:          w.g,
		numEdges:   w.numEdges,
		spec:       spec,
		dirty:      w.dirty,
	}
}

// NewShardedWeb reassembles a sharded web artifact from its persisted
// parts: the policy it was binarised under, the full per-user generosity
// vector, and the complete replicated adjacency (to[u] strictly
// ascending, w[u] the parallel T̂ weights). Owned users' dense rows are
// served from the rebuilt graph's packed storage — the same bytes the
// checkpoint recorded.
func NewShardedWeb(policy WebPolicy, generosity []float64, to [][]int32, wts [][]float64, spec shard.Spec) (*Web, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	spec = spec.Canon()
	numU := len(generosity)
	g, err := graph.FromRows(numU, to, wts)
	if err != nil {
		return nil, fmt.Errorf("core: sharded web: %w", err)
	}
	rows := make([]WebRow, numU)
	for u := 0; u < numU; u++ {
		if spec.Owns(u) {
			gt, gw := g.Out(u)
			rows[u] = WebRow{To: gt, W: gw}
		}
	}
	return &Web{
		policy:     policy,
		generosity: generosity,
		rows:       rows,
		g:          g,
		numEdges:   g.NumEdges(),
		spec:       spec,
	}, nil
}

// RehydrateShardedArtifacts is RehydrateArtifacts for a per-shard
// checkpoint: compactA holds only the owned users' affinity rows (in
// ascending user-id order) while expertise is the complete U x C matrix,
// and the web — which cannot be rebuilt from a compact A — arrives
// already reassembled (see NewShardedWeb). Row sums and the expert index
// are rebuilt exactly as the unsharded path rebuilds them: owned row
// sums from the compact rows (bitwise copies of the full rows, so the
// sums match), the expert index from the complete E.
func RehydrateShardedArtifacts(results []*riggs.CategoryResult, expertise, compactA *mat.Dense, spec shard.Spec, web *Web, workers int) (*Artifacts, error) {
	if expertise == nil || compactA == nil || web == nil {
		return nil, fmt.Errorf("core: rehydrate sharded: nil artifacts")
	}
	spec = spec.Canon()
	if err := validateRiggsResults(results, expertise.Cols()); err != nil {
		return nil, fmt.Errorf("core: rehydrate sharded: %w", err)
	}
	numU := expertise.Rows()
	rowIndex, owned := shardRowIndex(spec, numU)
	if compactA.Rows() != owned || compactA.Cols() != expertise.Cols() {
		return nil, fmt.Errorf("core: rehydrate sharded: affinity is %dx%d, want %dx%d (shard %v of %d users)",
			compactA.Rows(), compactA.Cols(), owned, expertise.Cols(), spec, numU)
	}
	if web.NumUsers() != numU || web.ShardSpec() != spec {
		return nil, fmt.Errorf("core: rehydrate sharded: web is %d users shard %v, want %d users shard %v",
			web.NumUsers(), web.ShardSpec(), numU, spec)
	}

	dt := &DerivedTrust{
		affinity:    compactA,
		expertise:   expertise,
		rowSum:      make([]float64, numU),
		affinityNNZ: make([]int32, numU),
		numUsers:    numU,
		spec:        spec,
		rowIndex:    rowIndex,
	}
	par.Do(workers, numU, func(u int) {
		r := rowIndex[u]
		if r < 0 {
			return // unowned: no dense row, sum stays 0 and is never read
		}
		var sum float64
		var nnz int32
		for _, v := range compactA.Row(int(r)) {
			sum += v
			if v != 0 {
				nnz++
			}
		}
		dt.rowSum[u] = sum
		dt.affinityNNZ[u] = nnz
	})
	numC := expertise.Cols()
	dt.expertsByCategory = make([]*mat.Bitset, numC)
	dt.expertLists = make([][]int32, numC)
	dt.expertScores = make([][]float64, numC)
	par.Do(workers, numC, func(c int) {
		bs := mat.NewBitset(numU)
		var list []int32
		var scores []float64
		for u := 0; u < numU; u++ {
			if v := expertise.At(u, c); v > 0 {
				bs.Set(u)
				list = append(list, int32(u))
				scores = append(scores, v)
			}
		}
		dt.expertsByCategory[c] = bs
		dt.expertLists[c] = list
		dt.expertScores[c] = scores
	})
	return &Artifacts{
		RiggsResults: results,
		Expertise:    expertise,
		Affinity:     compactA,
		Trust:        dt,
		Web:          web,
	}, nil
}
