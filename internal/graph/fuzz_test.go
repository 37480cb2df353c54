package graph

import (
	"encoding/binary"
	"testing"
)

// FuzzGraphNew drives the graph constructor with adversarial edge lists
// decoded from raw bytes: node counts and endpoints far outside range,
// duplicate and self edges, pathological weights. The constructor must
// either reject the input or return a structurally sound graph — never
// panic, never index out of bounds — because the serving path hands New
// and FromRows data derived from decoded (checkpointed) artifacts.
func FuzzGraphNew(f *testing.F) {
	seed := func(n uint16, triples ...uint16) []byte {
		b := binary.LittleEndian.AppendUint16(nil, n)
		for _, v := range triples {
			b = binary.LittleEndian.AppendUint16(b, v)
		}
		return b
	}
	f.Add(seed(0))
	f.Add(seed(3, 0, 1, 100, 1, 2, 200, 2, 0, 300))
	f.Add(seed(2, 0, 0, 1, 1, 5, 2)) // self-loop + out-of-range
	f.Add(seed(4, 0, 1, 7, 0, 1, 9)) // duplicate edge (weights merge)
	f.Add(seed(65535, 0, 65534, 1))  // huge node count, sparse
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		// Bound n so a fuzzed node count cannot legitimately allocate
		// gigabytes: the validation under test is about edges, not n.
		n := int(binary.LittleEndian.Uint16(data)) % 4096
		data = data[2:]
		var edges []Edge
		for len(data) >= 6 {
			edges = append(edges, Edge{
				From:   int(int16(binary.LittleEndian.Uint16(data))),
				To:     int(int16(binary.LittleEndian.Uint16(data[2:]))),
				Weight: float64(binary.LittleEndian.Uint16(data[4:])) / 65536,
			})
			data = data[6:]
		}
		g, err := New(n, edges)
		if err != nil {
			for _, e := range edges {
				if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
					return // rejection justified
				}
			}
			t.Fatalf("New rejected %d in-range edges: %v", len(edges), err)
		}
		validate(t, g, n, len(edges))

		// Re-pack the merged adjacency through FromRows: it must accept
		// output New itself produced and build the identical graph.
		to := make([][]int32, n)
		w := make([][]float64, n)
		for v := 0; v < n; v++ {
			to[v], w[v] = g.Out(v)
		}
		g2, err := FromRows(n, to, w)
		if err != nil {
			t.Fatalf("FromRows rejected New's own adjacency: %v", err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round-trip edge count %d != %d", g2.NumEdges(), g.NumEdges())
		}
		validate(t, g2, n, len(edges))
	})
}

// validate checks the CSR invariants a structurally sound graph holds.
func validate(t *testing.T, g *Graph, n, maxEdges int) {
	t.Helper()
	if g.NumNodes() != n {
		t.Fatalf("NumNodes = %d, want %d", g.NumNodes(), n)
	}
	if g.NumEdges() > maxEdges {
		t.Fatalf("NumEdges = %d exceeds %d inputs", g.NumEdges(), maxEdges)
	}
	outSum, inSum := 0, 0
	for v := 0; v < n; v++ {
		to, wts := g.Out(v)
		if len(to) != len(wts) || len(to) != g.OutDegree(v) {
			t.Fatalf("node %d: inconsistent out lists", v)
		}
		for i, u := range to {
			if u < 0 || int(u) >= n {
				t.Fatalf("node %d: out target %d out of range", v, u)
			}
			if i > 0 && to[i-1] >= u {
				t.Fatalf("node %d: out targets not strictly ascending", v)
			}
		}
		from, iw := g.In(v)
		if len(from) != len(iw) || len(from) != g.InDegree(v) {
			t.Fatalf("node %d: inconsistent in lists", v)
		}
		outSum += len(to)
		inSum += len(from)
	}
	if outSum != g.NumEdges() || inSum != g.NumEdges() {
		t.Fatalf("degree sums %d/%d != %d edges", outSum, inSum, g.NumEdges())
	}
}
