package core

import (
	"fmt"

	"weboftrust/internal/affinity"
	"weboftrust/internal/mat"
	"weboftrust/internal/ratings"
	"weboftrust/internal/reputation"
	"weboftrust/internal/riggs"
	"weboftrust/internal/shard"
)

// Config assembles the knobs of all three pipeline steps. The zero value
// is not valid; start from DefaultConfig.
type Config struct {
	// Riggs configures the Step 1 fixed point (eqs. 1-2).
	Riggs riggs.Model
	// Reputation configures writer reputation (eq. 3).
	Reputation reputation.Options
	// AffinityMode selects the Step 2 activity blend (eq. 4).
	AffinityMode affinity.Mode
	// Workers caps the goroutines every pipeline stage fans out to.
	// 0 (the default) means one per available CPU
	// (runtime.GOMAXPROCS(0)); 1 forces fully serial execution. Every
	// stage shards work items that own disjoint output slots (categories
	// for the fixed points and expertise columns, users for affinity rows
	// and trust row sums), so artifacts are bitwise-identical at any
	// setting — the knob only trades wall-clock time.
	Workers int
	// Web selects how the derived matrix is binarised into the
	// web-of-trust graph artifact (Step 4, Artifacts.Web). Like Workers
	// it is excluded from the configuration fingerprint: the persisted
	// artifacts do not depend on it, and a restore rebuilds the graph
	// under the restoring side's policy.
	Web WebPolicy
	// Shard names this process's slice of an N-shard deployment: the
	// source users whose queries it answers (Spec.Owns). It is a serving
	// filter only. Every shard runs, keeps, updates and checkpoints the
	// same complete model an unsharded process does — a query from any
	// one source walks the whole web, so the graph, E and the expert
	// index are needed in full anyway. Like Workers, the spec is excluded
	// from the configuration fingerprint: it changes nothing the pipeline
	// computes.
	Shard shard.Spec
}

// DefaultConfig returns the configuration the paper evaluates.
func DefaultConfig() Config {
	return Config{
		Riggs:        riggs.DefaultModel(),
		Reputation:   reputation.DefaultOptions(),
		AffinityMode: affinity.Blend,
		Web:          DefaultWebPolicy(),
	}
}

// Artifacts bundles everything the pipeline produces. All fields are
// immutable after Run returns.
type Artifacts struct {
	// RiggsResults holds the Step 1 fixed point per category (review
	// quality and rater reputation), indexed by CategoryID.
	RiggsResults []*riggs.CategoryResult
	// Expertise is the U x C matrix E (Step 1c).
	Expertise *mat.Dense
	// Affinity is the U x C matrix A (Step 2).
	Affinity *mat.Dense
	// Trust is the derived trust matrix T̂ (Step 3) in functional form.
	Trust *DerivedTrust
	// Web is the binarised web of trust (Step 4): the paper's end
	// product, built from Trust under Config.Web and maintained
	// incrementally through Update.
	Web *Web
}

// Run executes Steps 1-4 on the dataset and returns the artifacts.
func (c Config) Run(d *ratings.Dataset) (*Artifacts, error) {
	results, err := c.Riggs.SolveAllWorkers(d, c.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: step 1 (riggs): %w", err)
	}
	e, err := c.Reputation.ExpertiseMatrixWorkers(d, results, c.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: step 1c (expertise): %w", err)
	}
	a, err := affinity.MatrixWorkers(d, c.AffinityMode, c.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: step 2 (affinity): %w", err)
	}
	dt, err := NewDerivedTrustWorkers(a, e, c.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: step 3 (derive): %w", err)
	}
	web, err := BuildWeb(d, dt, c.Web, c.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: step 4 (web of trust): %w", err)
	}
	return &Artifacts{
		RiggsResults: results,
		Expertise:    e,
		Affinity:     a,
		Trust:        dt,
		Web:          web,
	}, nil
}
