package graph

// Reciprocity returns the fraction of directed edges whose reverse edge
// also exists — a standard social-network statistic (explicit trust webs
// are notoriously reciprocal; derived webs need not be). An empty graph
// returns 0.
func (g *Graph) Reciprocity() float64 {
	if g.NumEdges() == 0 {
		return 0
	}
	recip := 0
	for v := 0; v < g.n; v++ {
		to, _ := g.Out(v)
		for _, u := range to {
			if _, ok := g.Weight(int(u), v); ok {
				recip++
			}
		}
	}
	return float64(recip) / float64(g.NumEdges())
}

// LocalClustering returns node v's local clustering coefficient treating
// the graph as undirected: of all pairs of v's neighbours (union of in-
// and out-neighbours, excluding v), the fraction connected by an edge in
// either direction. Nodes with fewer than two neighbours return 0.
//
// Each neighbour a's sorted Out and In rows are merged against the
// neighbours after it in the sorted list, so a node with k neighbours
// costs O(k² + Σ deg(a)) comparisons and no lookups.
func (g *Graph) LocalClustering(v int) float64 {
	neighbours := g.undirectedNeighbours(v)
	k := len(neighbours)
	if k < 2 {
		return 0
	}
	links := 0
	for i, a := range neighbours[:k-1] {
		out, _ := g.Out(int(a))
		in, _ := g.In(int(a))
		links += countLinked(neighbours[i+1:], out, in)
	}
	return float64(links) / float64(k*(k-1)/2)
}

// countLinked returns how many of the ids in nb appear in out or in. All
// three are in ascending order, so one merge walks them together.
func countLinked(nb, out, in []int32) int {
	links, i, j := 0, 0, 0
	for _, b := range nb {
		for i < len(out) && out[i] < b {
			i++
		}
		for j < len(in) && in[j] < b {
			j++
		}
		if (i < len(out) && out[i] == b) || (j < len(in) && in[j] == b) {
			links++
		}
		if i == len(out) && j == len(in) {
			break
		}
	}
	return links
}

// MeanClustering averages LocalClustering over the given nodes (all nodes
// when sample is nil). Sampling bounds the cost on hub-heavy graphs,
// where LocalClustering grows with the square of a node's degree.
func (g *Graph) MeanClustering(sample []int) float64 {
	if sample == nil {
		sample = make([]int, g.n)
		for i := range sample {
			sample[i] = i
		}
	}
	if len(sample) == 0 {
		return 0
	}
	var sum float64
	for _, v := range sample {
		sum += g.LocalClustering(v)
	}
	return sum / float64(len(sample))
}

// undirectedNeighbours returns the sorted union of v's in- and
// out-neighbours, excluding v itself: one merge of the two sorted rows.
func (g *Graph) undirectedNeighbours(v int) []int32 {
	to, _ := g.Out(v)
	from, _ := g.In(v)
	out := make([]int32, 0, len(to)+len(from))
	i, j := 0, 0
	for i < len(to) || j < len(from) {
		var u int32
		switch {
		case j == len(from) || (i < len(to) && to[i] < from[j]):
			u = to[i]
			i++
		case i == len(to) || from[j] < to[i]:
			u = from[j]
			j++
		default:
			u = to[i]
			i++
			j++
		}
		if int(u) != v {
			out = append(out, u)
		}
	}
	return out
}

// LargestSCCSize returns the size of the largest strongly connected
// component (0 for an empty graph).
func (g *Graph) LargestSCCSize() int {
	comp, numComps := g.SCC()
	if numComps == 0 {
		return 0
	}
	sizes := make([]int, numComps)
	for _, c := range comp {
		sizes[c]++
	}
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	return max
}
