package graph

import (
	"math/rand"
	"testing"
)

// TestFromRowsMatchesNew: for random already-sorted adjacency, FromRows
// builds exactly the graph New builds from the equivalent edge list —
// out and in lists, weights, offsets. FromRows is the one constructor the
// web artifact uses, on full builds and incremental updates alike.
func TestFromRowsMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		to := make([][]int32, n)
		w := make([][]float64, n)
		var edges []Edge
		for v := 0; v < n; v++ {
			for u := 0; u < n; u++ {
				if rng.Float64() < 0.2 {
					weight := rng.Float64()
					to[v] = append(to[v], int32(u))
					w[v] = append(w[v], weight)
					edges = append(edges, Edge{From: v, To: u, Weight: weight})
				}
			}
		}
		fast, err := FromRows(n, to, w)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := New(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		if fast.NumNodes() != slow.NumNodes() || fast.NumEdges() != slow.NumEdges() {
			t.Fatalf("shape: %d/%d vs %d/%d", fast.NumNodes(), fast.NumEdges(), slow.NumNodes(), slow.NumEdges())
		}
		for v := 0; v < n; v++ {
			ft, fw := fast.Out(v)
			st, sw := slow.Out(v)
			if len(ft) != len(st) {
				t.Fatalf("node %d out: %d vs %d", v, len(ft), len(st))
			}
			for i := range ft {
				if ft[i] != st[i] || fw[i] != sw[i] {
					t.Fatalf("node %d out edge %d: (%d,%v) vs (%d,%v)", v, i, ft[i], fw[i], st[i], sw[i])
				}
			}
			ff, fiw := fast.In(v)
			sf, siw := slow.In(v)
			if len(ff) != len(sf) {
				t.Fatalf("node %d in: %d vs %d", v, len(ff), len(sf))
			}
			for i := range ff {
				if ff[i] != sf[i] || fiw[i] != siw[i] {
					t.Fatalf("node %d in edge %d: (%d,%v) vs (%d,%v)", v, i, ff[i], fiw[i], sf[i], siw[i])
				}
			}
		}
	}
}

func TestFromRowsRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		n    int
		to   [][]int32
		w    [][]float64
	}{
		{"negative n", -1, nil, nil},
		{"row count mismatch", 2, [][]int32{{0}}, [][]float64{{1}}},
		{"weight count mismatch", 1, [][]int32{{0}}, [][]float64{}},
		{"ragged row", 2, [][]int32{{0, 1}, nil}, [][]float64{{1}, nil}},
		{"out of range", 2, [][]int32{{2}, nil}, [][]float64{{1}, nil}},
		{"negative target", 2, [][]int32{{-1}, nil}, [][]float64{{1}, nil}},
		{"unsorted", 3, [][]int32{{2, 1}, nil, nil}, [][]float64{{1, 1}, nil, nil}},
		{"duplicate", 3, [][]int32{{1, 1}, nil, nil}, [][]float64{{1, 1}, nil, nil}},
	}
	for _, tc := range cases {
		if _, err := FromRows(tc.n, tc.to, tc.w); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestFromRowsEmpty(t *testing.T) {
	g, err := FromRows(0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d nodes / %d edges", g.NumNodes(), g.NumEdges())
	}
}
