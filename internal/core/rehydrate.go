package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"weboftrust/internal/mat"
	"weboftrust/internal/riggs"
)

// Fingerprint returns a stable hash of every configuration knob that
// affects the derived model's values: the Riggs fixed-point parameters,
// the reputation discount and the affinity mode. Workers is deliberately
// excluded — the pipeline is bitwise-identical at any worker count, so a
// checkpoint written under one parallelism setting restores under any
// other. The web binarize policy (Config.Web) is excluded for the same
// reason checkpoints stay portable across it: none of the persisted
// artifacts depend on it, and the graph is rebuilt deterministically
// under the restoring side's policy. Checkpoints record the fingerprint
// of the config they were derived with, and a restore under a different
// fingerprint is rejected as stale: the persisted artifacts would not
// match what Derive produces.
func (c Config) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(1) // fingerprint schema version
	word(uint64(c.Riggs.MaxIter))
	word(math.Float64bits(c.Riggs.Tol))
	word(boolWord(c.Riggs.DiscountExperience))
	word(math.Float64bits(c.Riggs.UnratedQuality))
	word(boolWord(c.Reputation.DiscountExperience))
	word(uint64(c.AffinityMode))
	return h.Sum64()
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// RehydrateArtifacts reassembles pipeline Artifacts from their persisted
// parts: the per-category Riggs results, the expertise matrix E and the
// affinity matrix A. The DerivedTrust index (row sums, expert bitsets,
// packed expert lists and score columns) is not persisted at all — it is
// rebuilt here from A and E with NewDerivedTrustWorkers, which is
// bitwise-deterministic at any worker count, so a rehydrated model serves
// exactly the values a fresh Derive over the same dataset would. Each
// Riggs result is reindexed (its lookup maps are derived state that does
// not survive serialisation). The web-of-trust graph — equally derived,
// equally deterministic — is deliberately NOT built here: restore is the
// time-to-serving path, and the facade rebuilds the graph lazily on
// first use (first graph query or first incremental update) instead,
// keeping warm boot O(load + index rebuild).
//
// The inputs are validated against each other: one result per E/A column,
// each result labelled with its own index, and matching E/A shapes (the
// shape check itself lives in the DerivedTrust constructor).
func RehydrateArtifacts(results []*riggs.CategoryResult, expertise, affinity *mat.Dense, workers int) (*Artifacts, error) {
	if expertise == nil || affinity == nil {
		return nil, fmt.Errorf("core: rehydrate: nil matrices")
	}
	if err := validateRiggsResults(results, expertise.Cols()); err != nil {
		return nil, fmt.Errorf("core: rehydrate: %w", err)
	}
	dt, err := NewDerivedTrustWorkers(affinity, expertise, workers)
	if err != nil {
		return nil, fmt.Errorf("core: rehydrate: %w", err)
	}
	return &Artifacts{
		RiggsResults: results,
		Expertise:    expertise,
		Affinity:     affinity,
		Trust:        dt,
	}, nil
}

// validateRiggsResults checks decoded per-category Riggs results against
// the expertise matrix they must pair with — one result per column, each
// labelled with its own index, parallel slices consistent — and reindexes
// each (the lookup maps are derived state that does not survive
// serialisation).
func validateRiggsResults(results []*riggs.CategoryResult, numCategories int) error {
	if len(results) != numCategories {
		return fmt.Errorf("%d riggs results for %d expertise columns", len(results), numCategories)
	}
	for i, cr := range results {
		if cr == nil {
			return fmt.Errorf("missing riggs result %d", i)
		}
		if int(cr.Category) != i {
			return fmt.Errorf("riggs result %d labelled category %d", i, cr.Category)
		}
		if len(cr.Quality) != len(cr.Reviews) ||
			len(cr.RaterRep) != len(cr.Raters) || len(cr.RaterCount) != len(cr.Raters) {
			return fmt.Errorf("riggs result %d has mismatched parallel slices", i)
		}
		cr.Reindex()
	}
	return nil
}
