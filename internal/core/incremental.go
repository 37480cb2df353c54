package core

import (
	"errors"
	"fmt"

	"weboftrust/internal/affinity"
	"weboftrust/internal/mat"
	"weboftrust/internal/par"
	"weboftrust/internal/ratings"
	"weboftrust/internal/riggs"
)

// ErrNotExtension reports that the new dataset does not extend the old
// one, so incremental update is impossible.
var ErrNotExtension = errors.New("core: new dataset does not extend the old one")

// Update recomputes the pipeline artifacts after the dataset grew,
// re-solving the Step 1 fixed point only for the categories touched by
// new reviews or ratings. Untouched categories are reused wholesale: their
// Riggs results verbatim (their inputs are byte-identical) and their
// expertise columns copied from the old E instead of re-aggregating
// writers. The web of trust re-selects rows only for the users
// dirtyUsers marks and copies every other row from the old web's graph
// (Web.DirtyUsers reports the set). What does need recomputing — touched
// fixed points, touched expertise columns, the affinity matrix (any new
// event shifts some user's activity normalisation) and the derived-trust
// index — fans out across Config.Workers. These are the reuse layers that
// pay for themselves (EXPERIMENTS.md times each). The result is exactly
// what Run would produce on the new dataset — verified by the equivalence
// property tests.
//
// newD must extend oldD: all of oldD's users, categories, objects,
// reviews and ratings must form a prefix of newD's (the shape produced by
// replaying an append-only event log past its previous position).
func (c Config) Update(oldArt *Artifacts, oldD, newD *ratings.Dataset) (*Artifacts, error) {
	if oldArt == nil || oldD == nil || newD == nil {
		return nil, fmt.Errorf("core: Update requires non-nil artifacts and datasets")
	}
	if err := checkExtension(oldD, newD); err != nil {
		return nil, err
	}
	if len(oldArt.RiggsResults) != oldD.NumCategories() {
		return nil, fmt.Errorf("core: artifacts carry %d riggs results for %d categories",
			len(oldArt.RiggsResults), oldD.NumCategories())
	}
	if oldD.NumCategories() > 0 && oldArt.Expertise == nil {
		return nil, fmt.Errorf("core: artifacts missing expertise matrix")
	}

	numC := newD.NumCategories()
	touched := make([]bool, numC)
	// Categories new to the dataset are touched by definition.
	for cat := oldD.NumCategories(); cat < numC; cat++ {
		touched[cat] = true
	}
	for r := oldD.NumReviews(); r < newD.NumReviews(); r++ {
		touched[newD.Review(ratings.ReviewID(r)).Category] = true
	}
	newRatings := newD.Ratings()[oldD.NumRatings():]
	for _, rt := range newRatings {
		touched[newD.Review(rt.Review).Category] = true
	}

	results := make([]*riggs.CategoryResult, numC)
	var touchedCats []int
	for cat := range results {
		if cat < oldD.NumCategories() && !touched[cat] {
			results[cat] = oldArt.RiggsResults[cat]
			continue
		}
		touchedCats = append(touchedCats, cat)
	}

	// Each worker gets its own Riggs scratch for this call, as
	// riggs.SolveAllWorkers does. Normalize once so the scratch slots and
	// DoWorker's ids come from the same evaluation even if GOMAXPROCS
	// changes concurrently.
	workers := par.Normalize(c.Workers)
	scratch := make([]*riggs.Scratch, workers)
	solveErrs := make([]error, len(touchedCats))
	par.DoWorker(workers, len(touchedCats), func(w, i int) {
		if scratch[w] == nil {
			scratch[w] = riggs.NewScratch()
		}
		cat := touchedCats[i]
		cr, err := c.Riggs.SolveScratch(newD, ratings.CategoryID(cat), scratch[w])
		if err != nil {
			solveErrs[i] = fmt.Errorf("core: update category %d: %w", cat, err)
			return
		}
		results[cat] = cr
	})
	if err := par.FirstError(solveErrs); err != nil {
		return nil, err
	}

	// Expertise: untouched columns are copied verbatim from the old E
	// (rows for users added since stay zero — a new user writing in an
	// old category would have touched it), touched columns recomputed.
	oldE, oldUsers := oldArt.Expertise, oldD.NumUsers()
	e := mat.NewDense(newD.NumUsers(), numC)
	colErrs := make([]error, numC)
	par.Do(c.Workers, numC, func(cat int) {
		// Untouched implies cat < oldD.NumCategories(): new categories
		// are always marked touched.
		if !touched[cat] {
			for u := 0; u < oldUsers; u++ {
				e.Set(u, cat, oldE.At(u, cat))
			}
			return
		}
		colErrs[cat] = c.Reputation.ExpertiseColumnInto(newD, results[cat], ratings.CategoryID(cat), e)
	})
	if err := par.FirstError(colErrs); err != nil {
		return nil, fmt.Errorf("core: update expertise: %w", err)
	}

	a, err := affinity.MatrixWorkers(newD, c.AffinityMode, c.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: update affinity: %w", err)
	}
	dt, err := NewDerivedTrustWorkers(a, e, c.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: update derive: %w", err)
	}
	// A nil oldArt.Web (artifacts assembled by hand) falls back to a full
	// web build.
	web, err := buildWeb(newD, dt, c.Web, c.Workers, oldArt.Web, oldD, touched)
	if err != nil {
		return nil, fmt.Errorf("core: update web of trust: %w", err)
	}
	return &Artifacts{
		RiggsResults: results,
		Expertise:    e,
		Affinity:     a,
		Trust:        dt,
		Web:          web,
	}, nil
}

// checkExtension verifies that newD is oldD plus appended entities.
func checkExtension(oldD, newD *ratings.Dataset) error {
	if newD.NumUsers() < oldD.NumUsers() ||
		newD.NumCategories() < oldD.NumCategories() ||
		newD.NumObjects() < oldD.NumObjects() ||
		newD.NumReviews() < oldD.NumReviews() ||
		newD.NumRatings() < oldD.NumRatings() ||
		newD.NumTrustEdges() < oldD.NumTrustEdges() {
		return fmt.Errorf("%w: shrunk entity counts", ErrNotExtension)
	}
	for c := 0; c < oldD.NumCategories(); c++ {
		if oldD.CategoryName(ratings.CategoryID(c)) != newD.CategoryName(ratings.CategoryID(c)) {
			return fmt.Errorf("%w: category %d renamed", ErrNotExtension, c)
		}
	}
	for o := 0; o < oldD.NumObjects(); o++ {
		if oldD.Object(ratings.ObjectID(o)) != newD.Object(ratings.ObjectID(o)) {
			return fmt.Errorf("%w: object %d differs", ErrNotExtension, o)
		}
	}
	for r := 0; r < oldD.NumReviews(); r++ {
		if oldD.Review(ratings.ReviewID(r)) != newD.Review(ratings.ReviewID(r)) {
			return fmt.Errorf("%w: review %d differs", ErrNotExtension, r)
		}
	}
	oldRatings, newRatings := oldD.Ratings(), newD.Ratings()
	for i := range oldRatings {
		if oldRatings[i] != newRatings[i] {
			return fmt.Errorf("%w: rating %d differs", ErrNotExtension, i)
		}
	}
	// The web artifact's generosity maintenance keys on new trust edges,
	// so the trust list must be append-only like everything else.
	oldTrust, newTrust := oldD.TrustEdges(), newD.TrustEdges()
	for i := range oldTrust {
		if oldTrust[i] != newTrust[i] {
			return fmt.Errorf("%w: trust edge %d differs", ErrNotExtension, i)
		}
	}
	return nil
}
