// Package weboftrust derives a web of trust from review-rating data,
// without explicit trust ratings — a from-scratch Go implementation of
// Kim, Le, Lauw, Lim, Liu and Srivastava, "Building a Web of Trust without
// Explicit Trust Ratings" (IEEE ICDE Workshops 2008).
//
// Online communities rarely have a usable explicit web of trust: users
// declare trust for only a handful of people, if at all. This library
// computes a dense, continuous trust matrix T̂ from the rating data such
// communities do have, in three steps performed per category (topic):
//
//  1. Expertise. Review quality and rater reputation are solved as a
//     fixed point of Riggs' model (quality = reputation-weighted average
//     of received ratings; reputation = consistency with the consensus,
//     discounted by inexperience). Writer reputation per category is the
//     experience-discounted average quality of the writer's reviews,
//     giving the Users x Categories expertise matrix E.
//  2. Affinity. Per-user activity counts (ratings given, reviews written)
//     are row-max normalised and blended into the affiliation matrix A.
//  3. Derived trust. T̂_ij = Σ_c A_ic·E_jc / Σ_c A_ic — user i trusts
//     user j to the degree j is an expert in what i cares about.
//
// The continuous matrix is then binarised into the web of trust itself —
// each user keeps their top ⌈k_i·n_i⌉ derived connections, sized by
// their own generosity k_i — and that graph is carried as a pipeline
// artifact: incrementally maintained by Update, persisted across
// restarts, and traversable with the propagation algorithms of the
// related work.
//
// The facade in this package wraps the full pipeline:
//
//	model, err := weboftrust.Derive(dataset)
//	top := model.TopTrusted(alice, 10)     // whom should alice trust?
//	score := model.Score(alice, bob)       // degree of trust in [0,1]
//	edges := model.Neighbors(alice)        // alice's web-of-trust out-edges
//	far, err := model.Propagate(weboftrust.PropagateAppleseed, alice, 10)
//
// Datasets are built with the ratings package's Builder, replayed from
// an event log (internal/store), or generated synthetically
// (internal/synth). The internal packages expose every intermediate
// artifact — Riggs fixed points, expertise and affinity matrices,
// binarisation, evaluation metrics, and the TidalTrust / EigenTrust /
// Appleseed propagation algorithms the paper discusses.
//
// The cmd/experiments binary regenerates every table and figure of the
// paper's evaluation; see DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results.
package weboftrust
