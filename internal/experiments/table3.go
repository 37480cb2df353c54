package experiments

import (
	"io"

	"weboftrust/internal/eval"
	"weboftrust/internal/ratings"
	"weboftrust/internal/reputation"
	"weboftrust/internal/riggs"
	"weboftrust/internal/synth"
)

// Table3Result reproduces Table 3: per sub-category, rank review writers
// by their reputation (eq. 3) and count the simulated Top Reviewers per
// quartile. The paper reports 89.4% in Q1 overall — lower than the raters'
// model but still validating.
type Table3Result struct {
	Report *eval.QuartileReport
}

// RunTable3 executes the Table 3 protocol with the env's pipeline
// configuration.
func RunTable3(env *Env) (*Table3Result, error) {
	return table3From(env.Dataset, env.Truth, env.Artifacts.RiggsResults, env.Suite.Pipeline.Reputation)
}

func table3From(d *ratings.Dataset, gt *synth.GroundTruth, results []*riggs.CategoryResult, opts reputation.Options) (*Table3Result, error) {
	rows := make([]eval.QuartileRow, 0, d.NumCategories())
	for c := 0; c < d.NumCategories(); c++ {
		cw, err := opts.Writers(d, results[c], ratings.CategoryID(c))
		if err != nil {
			return nil, err
		}
		designated := designatedIn(gt.TopReviewers, func(u ratings.UserID) bool {
			_, active := cw.ReputationOf(u)
			return active
		})
		rows = append(rows, eval.QuartileRow{
			Category:   d.CategoryName(ratings.CategoryID(c)),
			Ranked:     len(cw.Writers),
			Designated: len(designated),
			Counts:     eval.Quartiles(cw.Writers, cw.Reputation, designated),
		})
	}
	return &Table3Result{Report: eval.NewQuartileReport(rows)}, nil
}

// Render prints the table in the paper's layout.
func (r *Table3Result) Render(w io.Writer) error {
	return renderQuartileTable(w,
		"TABLE 3 - THE PERFORMANCE OF REVIEW WRITERS' REPUTATION MODEL",
		"Writers", r.Report)
}
