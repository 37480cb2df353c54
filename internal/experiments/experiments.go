// Package experiments reproduces the paper's evaluation section: one
// runner per table and figure (Tables 2-4, Fig. 3), the future-work
// propagation comparison the conclusion proposes, and the ablations of the
// design choices DESIGN.md calls out (A-1..A-4). Every runner is
// deterministic given its Suite configuration and renders a paper-style
// text table.
package experiments

import (
	"fmt"
	"io"

	"weboftrust/internal/core"
	"weboftrust/internal/ratings"
	"weboftrust/internal/synth"
)

// Suite fixes the dataset and pipeline configuration shared by all
// experiment runners.
type Suite struct {
	// Synth configures the synthetic Epinions-like community (the
	// paper's crawl substitute; see DESIGN.md §2).
	Synth synth.Config
	// Pipeline configures the three framework steps.
	Pipeline core.Config
}

// Env bundles the generated dataset, ground truth and pipeline artifacts
// so several experiments can share one expensive setup.
type Env struct {
	Suite     Suite
	Dataset   *ratings.Dataset
	Truth     *synth.GroundTruth
	Artifacts *core.Artifacts
}

// Setup generates the dataset and runs the pipeline once.
func (s Suite) Setup() (*Env, error) {
	d, gt, err := synth.Generate(s.Synth)
	if err != nil {
		return nil, fmt.Errorf("experiments: generate: %w", err)
	}
	art, err := s.Pipeline.Run(d)
	if err != nil {
		return nil, fmt.Errorf("experiments: pipeline: %w", err)
	}
	return &Env{Suite: s, Dataset: d, Truth: gt, Artifacts: art}, nil
}

// Result is the common interface of every experiment's output: it renders
// a human-readable report.
type Result interface {
	Render(w io.Writer) error
}

// designatedIn returns the subset of picks active in category c according
// to the activity predicate, as a membership set.
func designatedIn(picks []ratings.UserID, active func(ratings.UserID) bool) map[ratings.UserID]bool {
	set := make(map[ratings.UserID]bool)
	for _, u := range picks {
		if active(u) {
			set[u] = true
		}
	}
	return set
}
