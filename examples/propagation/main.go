// Propagation: the paper's future work, demonstrated. Builds both webs of
// trust for the same community — the sparse explicit one and the dense
// derived one — and propagates each with TidalTrust, EigenTrust and
// Appleseed, showing the derived web answers trust queries the explicit
// web cannot.
//
//	go run ./examples/propagation
package main

import (
	"fmt"
	"log"
	"os"

	"weboftrust"
	"weboftrust/internal/core"
	"weboftrust/internal/graph"
	"weboftrust/internal/propagation"
	"weboftrust/internal/ratings"
	"weboftrust/internal/synth"
	"weboftrust/internal/tables"
)

func main() {
	cfg := synth.Small()
	cfg.Seed = 3
	dataset, _, err := synth.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	model, err := weboftrust.Derive(dataset)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(dataset)

	explicit := explicitWeb(dataset)
	derived := derivedWeb(dataset, model)
	fmt.Printf("explicit web: %d edges; derived web: %d edges\n",
		explicit.NumEdges(), derived.NumEdges())

	// Pick a cold-start user: someone who rates but declared no trust.
	cold := ratings.NoUser
	for u := 0; u < dataset.NumUsers(); u++ {
		id := ratings.UserID(u)
		if len(dataset.RatingsBy(id)) >= 5 && len(dataset.TrustedBy(id)) == 0 {
			cold = id
			break
		}
	}
	if cold == ratings.NoUser {
		log.Fatal("no cold-start user found")
	}
	fmt.Printf("\ncold-start user %s: %d ratings given, 0 explicit trust edges\n",
		dataset.UserName(cold), len(dataset.RatingsBy(cold)))

	// TidalTrust from the cold-start user over both webs.
	tt := propagation.TidalTrust{MaxDepth: 4}
	covE := tt.Coverage(explicit, []int{int(cold)})
	covD := tt.Coverage(derived, []int{int(cold)})
	fmt.Printf("TidalTrust coverage from this user: explicit %.3f vs derived %.3f\n", covE, covD)

	// A concrete query the explicit web cannot answer.
	target := findUnanswerable(explicit, derived, tt, int(cold))
	if target >= 0 {
		v, _ := tt.Infer(derived, int(cold), target)
		fmt.Printf("query %s -> %s: explicit web has NO path; derived web infers %.3f\n",
			dataset.UserName(cold), dataset.UserName(ratings.UserID(target)), v)
	}

	// Global view: EigenTrust over both webs, top-5 each.
	et := propagation.DefaultEigenTrust()
	rankE, _, err := et.Ranks(explicit)
	if err != nil {
		log.Fatal(err)
	}
	rankD, _, err := et.Ranks(derived)
	if err != nil {
		log.Fatal(err)
	}
	t := tables.New("Rank", "EigenTrust on explicit web", "EigenTrust on derived web").
		Title("global trust rankings").AlignRight(0)
	topE := core.RankRow(rankE, 5)
	topD := core.RankRow(rankD, 5)
	for i := 0; i < 5 && (i < len(topE) || i < len(topD)); i++ {
		var left, right string
		if i < len(topE) {
			left = fmt.Sprintf("%s (%.4f)", dataset.UserName(topE[i].User), topE[i].Score)
		}
		if i < len(topD) {
			right = fmt.Sprintf("%s (%.4f)", dataset.UserName(topD[i].User), topD[i].Score)
		}
		t.AddRow(i+1, left, right)
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Personalised view: Appleseed from a well-connected user over both.
	var connected ratings.UserID
	for u := 0; u < dataset.NumUsers(); u++ {
		if len(dataset.TrustedBy(ratings.UserID(u))) > len(dataset.TrustedBy(connected)) {
			connected = ratings.UserID(u)
		}
	}
	as := propagation.DefaultAppleseed()
	rE, err := as.Rank(explicit, int(connected))
	if err != nil {
		log.Fatal(err)
	}
	rD, err := as.Rank(derived, int(connected))
	if err != nil {
		log.Fatal(err)
	}
	overlap := jaccard(core.RankRow(rE, 10), core.RankRow(rD, 10))
	fmt.Printf("\nAppleseed top-10 overlap for %s (explicit vs derived): %.2f\n",
		dataset.UserName(connected), overlap)
}

// explicitWeb builds the trust graph from declared edges, weight 1.
func explicitWeb(d *ratings.Dataset) *graph.Graph {
	var edges []graph.Edge
	for _, e := range d.TrustEdges() {
		edges = append(edges, graph.Edge{From: int(e.From), To: int(e.To), Weight: 1})
	}
	g, err := graph.New(d.NumUsers(), edges)
	if err != nil {
		log.Fatal(err)
	}
	return g
}

// derivedWeb binarises the derived matrix (cold-start users fall back to
// the population's mean generosity) and keeps continuous T̂ weights.
func derivedWeb(d *ratings.Dataset, m *weboftrust.TrustModel) *graph.Graph {
	k := core.Generosity(d)
	var sum float64
	n := 0
	for _, v := range k {
		if v > 0 {
			sum += v
			n++
		}
	}
	mean := 0.0
	if n > 0 {
		mean = sum / float64(n)
	}
	for i, v := range k {
		if v == 0 {
			k[i] = mean
		}
	}
	pred, err := core.BinarizeDerived(m.Artifacts().Trust, k)
	if err != nil {
		log.Fatal(err)
	}
	var edges []graph.Edge
	for i := 0; i < d.NumUsers(); i++ {
		cols, _ := pred.Row(i)
		for _, j := range cols {
			w := m.Score(ratings.UserID(i), ratings.UserID(j))
			if w > 0 {
				edges = append(edges, graph.Edge{From: i, To: int(j), Weight: w})
			}
		}
	}
	g, err := graph.New(d.NumUsers(), edges)
	if err != nil {
		log.Fatal(err)
	}
	return g
}

// findUnanswerable locates a sink the explicit web cannot reach from the
// source but the derived web can.
func findUnanswerable(explicit, derived *graph.Graph, tt propagation.TidalTrust, source int) int {
	de := explicit.BFSDepths(source, tt.MaxDepth)
	dd := derived.BFSDepths(source, tt.MaxDepth)
	for v := range de {
		if v != source && de[v] < 0 && dd[v] > 0 {
			return v
		}
	}
	return -1
}

func jaccard(a, b []core.Ranked) float64 {
	set := make(map[ratings.UserID]bool, len(a))
	for _, x := range a {
		set[x.User] = true
	}
	inter := 0
	for _, x := range b {
		if set[x.User] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
