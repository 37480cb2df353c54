package propagation

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"weboftrust/internal/graph"
	"weboftrust/internal/stats"
)

func mustGraph(t *testing.T, n int, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTidalTrustDirectEdge(t *testing.T) {
	g := mustGraph(t, 3, []graph.Edge{{From: 0, To: 1, Weight: 0.7}})
	v, ok := TidalTrust{}.Infer(g, 0, 1)
	if !ok || v != 0.7 {
		t.Errorf("direct edge: %v, %v; want 0.7, true", v, ok)
	}
}

func TestTidalTrustSingleChain(t *testing.T) {
	// 0 --0.9--> 1 --0.8--> 2: value = (0.9 * 0.8) / 0.9 = 0.8.
	g := mustGraph(t, 3, []graph.Edge{
		{From: 0, To: 1, Weight: 0.9},
		{From: 1, To: 2, Weight: 0.8},
	})
	v, ok := TidalTrust{}.Infer(g, 0, 2)
	if !ok || math.Abs(v-0.8) > 1e-12 {
		t.Errorf("chain: %v, %v; want 0.8, true", v, ok)
	}
}

func TestTidalTrustWeightedAverage(t *testing.T) {
	// Two 2-hop paths: via 1 (0.9 then 1.0) and via 2 (0.3 then 0.2).
	// Threshold = max(min(0.9,1.0), min(0.3,0.2)) = 0.9, so only the
	// strong path participates: value = 1.0.
	g := mustGraph(t, 4, []graph.Edge{
		{From: 0, To: 1, Weight: 0.9}, {From: 1, To: 3, Weight: 1.0},
		{From: 0, To: 2, Weight: 0.3}, {From: 2, To: 3, Weight: 0.2},
	})
	v, ok := TidalTrust{}.Infer(g, 0, 3)
	if !ok || math.Abs(v-1.0) > 1e-12 {
		t.Errorf("threshold filtering: %v, %v; want 1.0, true", v, ok)
	}
}

func TestTidalTrustEqualStrengthPathsAverage(t *testing.T) {
	// Both paths share bottleneck 0.5: average weighted by first-hop
	// trust. Edges: 0->1 (0.5), 1->3 (0.8); 0->2 (0.5), 2->3 (0.6).
	// value = (0.5*0.8 + 0.5*0.6) / (0.5+0.5) = 0.7.
	g := mustGraph(t, 4, []graph.Edge{
		{From: 0, To: 1, Weight: 0.5}, {From: 1, To: 3, Weight: 0.8},
		{From: 0, To: 2, Weight: 0.5}, {From: 2, To: 3, Weight: 0.6},
	})
	v, ok := TidalTrust{}.Infer(g, 0, 3)
	if !ok || math.Abs(v-0.7) > 1e-12 {
		t.Errorf("averaging: %v, %v; want 0.7, true", v, ok)
	}
}

func TestTidalTrustShortestPathOnly(t *testing.T) {
	// Direct 2-hop path plus a longer 3-hop path with huge weights: only
	// the shortest path counts.
	g := mustGraph(t, 5, []graph.Edge{
		{From: 0, To: 1, Weight: 0.4}, {From: 1, To: 4, Weight: 0.4},
		{From: 0, To: 2, Weight: 1}, {From: 2, To: 3, Weight: 1}, {From: 3, To: 4, Weight: 1},
	})
	v, ok := TidalTrust{}.Infer(g, 0, 4)
	if !ok || math.Abs(v-0.4) > 1e-12 {
		t.Errorf("shortest-path restriction: %v, %v; want 0.4", v, ok)
	}
}

func TestTidalTrustNoPath(t *testing.T) {
	g := mustGraph(t, 3, []graph.Edge{{From: 1, To: 2, Weight: 1}})
	if _, ok := (TidalTrust{}).Infer(g, 0, 2); ok {
		t.Error("unreachable sink should not infer")
	}
	if _, ok := (TidalTrust{}).Infer(g, 0, 0); ok {
		t.Error("self-inference should be rejected")
	}
	if _, ok := (TidalTrust{}).Infer(g, -1, 2); ok {
		t.Error("invalid source should be rejected")
	}
}

func TestTidalTrustMaxDepth(t *testing.T) {
	g := mustGraph(t, 4, []graph.Edge{
		{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1}, {From: 2, To: 3, Weight: 1},
	})
	if _, ok := (TidalTrust{MaxDepth: 2}).Infer(g, 0, 3); ok {
		t.Error("depth-3 sink should be out of reach at MaxDepth=2")
	}
	if v, ok := (TidalTrust{MaxDepth: 3}).Infer(g, 0, 3); !ok || v != 1 {
		t.Errorf("depth-3 sink at MaxDepth=3: %v, %v", v, ok)
	}
}

func TestTidalTrustInferAllAndCoverage(t *testing.T) {
	g := mustGraph(t, 4, []graph.Edge{
		{From: 0, To: 1, Weight: 0.9}, {From: 1, To: 2, Weight: 0.8},
	})
	res := TidalTrust{}.InferAll(g, 0)
	if !res[1].OK || !res[2].OK || res[3].OK || res[0].OK {
		t.Errorf("InferAll OK flags wrong: %+v", res)
	}
	cov := TidalTrust{}.Coverage(g, []int{0})
	if math.Abs(cov-2.0/3.0) > 1e-12 {
		t.Errorf("coverage = %v, want 2/3", cov)
	}
	if (TidalTrust{}).Coverage(g, nil) != 0 {
		t.Error("empty sources coverage should be 0")
	}
	_ = TidalTrust{MaxDepth: 3}.String()
}

// Property: InferAll answers every sink exactly as the per-pair Infer
// does — the same OK flag and the same float bits — at every source and
// depth, on random graphs with cycles, self-loops, isolated nodes,
// sources without out-edges and tied weights.
func TestTidalTrustInferAllMatchesInferQuick(t *testing.T) {
	ties := []float64{0, 0.25, 0.5, 0.5, 0.75, 1}
	f := func(seed uint64) bool {
		rng := stats.NewRand(seed)
		n := 1 + rng.IntN(24)
		// Nodes from active on are isolated; node leaf has no out-edges.
		active := 1 + rng.IntN(n)
		leaf := rng.IntN(active)
		var edges []graph.Edge
		for k := rng.IntN(5 * active); k > 0; k-- {
			from, to := rng.IntN(active), rng.IntN(active)
			if from == leaf {
				continue
			}
			w := rng.Float64()
			if rng.IntN(2) == 0 {
				w = ties[rng.IntN(len(ties))]
			}
			edges = append(edges, graph.Edge{From: from, To: to, Weight: w})
		}
		g, err := graph.New(n, edges)
		if err != nil {
			return false
		}
		for _, depth := range []int{0, 1, 2, 3, 4, 6} {
			tt := TidalTrust{MaxDepth: depth}
			for s := 0; s < n; s++ {
				res := tt.InferAll(g, s)
				for k, r := range res {
					v, ok := tt.Infer(g, s, k)
					if r.OK != ok || math.Float64bits(r.Value) != math.Float64bits(v) {
						t.Logf("seed %d depth %d: InferAll(%d)[%d] = %+v, Infer = %v, %v", seed, depth, s, k, r, v, ok)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEigenTrustUniformOnSymmetric(t *testing.T) {
	// A symmetric cycle should rank everyone equally.
	g := mustGraph(t, 3, []graph.Edge{
		{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1}, {From: 2, To: 0, Weight: 1},
	})
	ranks, _, err := DefaultEigenTrust().Ranks(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ranks {
		if math.Abs(r-1.0/3.0) > 1e-6 {
			t.Errorf("rank[%d] = %v, want 1/3", i, r)
		}
	}
}

func TestEigenTrustFavorsTrusted(t *testing.T) {
	// Everyone trusts node 2; node 2 trusts node 0 weakly.
	g := mustGraph(t, 3, []graph.Edge{
		{From: 0, To: 2, Weight: 1}, {From: 1, To: 2, Weight: 1}, {From: 2, To: 0, Weight: 0.2},
	})
	et := DefaultEigenTrust()
	ranks, iters, err := et.Ranks(g)
	if err != nil {
		t.Fatal(err)
	}
	// The uniform start is not the fixed point here, so the solve takes
	// more than one power iteration and stops within its cap.
	if iters < 2 || iters > et.MaxIter {
		t.Errorf("iterations = %d, want 2..%d", iters, et.MaxIter)
	}
	if !(ranks[2] > ranks[0] && ranks[2] > ranks[1]) {
		t.Errorf("node 2 should rank highest: %v", ranks)
	}
	var sum float64
	for _, r := range ranks {
		if r < 0 {
			t.Errorf("negative rank: %v", ranks)
		}
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("ranks sum to %v, want 1", sum)
	}
}

func TestEigenTrustBadConfig(t *testing.T) {
	g := mustGraph(t, 2, []graph.Edge{{From: 0, To: 1, Weight: 1}})
	for _, et := range []EigenTrust{
		{Alpha: 0, MaxIter: 10, Tol: 1e-9},
		{Alpha: 1, MaxIter: 10, Tol: 1e-9},
		{Alpha: 0.15, MaxIter: 0, Tol: 1e-9},
		{Alpha: 0.15, MaxIter: 10, Tol: 0},
	} {
		if _, _, err := et.Ranks(g); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%+v: error = %v, want ErrBadConfig", et, err)
		}
	}
	empty := mustGraph(t, 0, nil)
	ranks, iters, err := DefaultEigenTrust().Ranks(empty)
	if err != nil || ranks != nil || iters != 0 {
		t.Errorf("empty graph: %v, %d iterations, %v", ranks, iters, err)
	}
}

func TestAppleseedBasic(t *testing.T) {
	// Source trusts 1 strongly and 2 weakly; 1 trusts 3.
	g := mustGraph(t, 4, []graph.Edge{
		{From: 0, To: 1, Weight: 0.9}, {From: 0, To: 2, Weight: 0.1},
		{From: 1, To: 3, Weight: 1.0},
	})
	ranks, err := DefaultAppleseed().Rank(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ranks[0] != 0 {
		t.Errorf("source should not rank itself: %v", ranks[0])
	}
	if !(ranks[1] > ranks[2]) {
		t.Errorf("strongly trusted neighbour should outrank weak one: %v", ranks)
	}
	if ranks[3] <= 0 {
		t.Errorf("2-hop node should receive energy: %v", ranks)
	}
	if !(ranks[1] > ranks[3]) {
		t.Errorf("closer node should outrank farther: %v", ranks)
	}
}

func TestAppleseedUnreachable(t *testing.T) {
	g := mustGraph(t, 3, []graph.Edge{{From: 0, To: 1, Weight: 1}})
	ranks, err := DefaultAppleseed().Rank(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ranks[2] != 0 {
		t.Errorf("unreachable node got energy: %v", ranks)
	}
}

func TestAppleseedBadConfig(t *testing.T) {
	g := mustGraph(t, 2, []graph.Edge{{From: 0, To: 1, Weight: 1}})
	for _, as := range []Appleseed{
		{Injection: 0, Spreading: 0.85, Tol: 0.01, MaxIter: 10},
		{Injection: 200, Spreading: 0, Tol: 0.01, MaxIter: 10},
		{Injection: 200, Spreading: 1, Tol: 0.01, MaxIter: 10},
		{Injection: 200, Spreading: 0.85, Tol: 0, MaxIter: 10},
		{Injection: 200, Spreading: 0.85, Tol: 0.01, MaxIter: 0},
	} {
		if _, err := as.Rank(g, 0); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%+v: error = %v, want ErrBadConfig", as, err)
		}
	}
	if _, err := DefaultAppleseed().Rank(g, 9); !errors.Is(err, ErrBadConfig) {
		t.Error("out-of-range source accepted")
	}
}

func TestL1Distance(t *testing.T) {
	if d := L1Distance([]float64{1, 2}, []float64{2, 0}); d != 3 {
		t.Errorf("L1 = %v, want 3", d)
	}
	defer func() {
		if recover() == nil {
			t.Error("L1Distance length mismatch should panic")
		}
	}()
	L1Distance([]float64{1}, []float64{1, 2})
}

// Property: TidalTrust values stay within [0, 1] when edge weights do, and
// a direct edge always short-circuits.
func TestTidalTrustRangeQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRand(seed)
		n := 3 + rng.IntN(12)
		// Deduplicate pairs: graph.New accumulates duplicate edge weights,
		// which would push weights above 1 and void the [0,1] invariant.
		seen := make(map[[2]int]bool)
		var edges []graph.Edge
		for k := 0; k < rng.IntN(4*n); k++ {
			from, to := rng.IntN(n), rng.IntN(n)
			if from != to && !seen[[2]int{from, to}] {
				seen[[2]int{from, to}] = true
				edges = append(edges, graph.Edge{From: from, To: to, Weight: 0.2 + 0.8*rng.Float64()})
			}
		}
		g, err := graph.New(n, edges)
		if err != nil {
			return false
		}
		tt := TidalTrust{MaxDepth: 6}
		for trial := 0; trial < 10; trial++ {
			s, k := rng.IntN(n), rng.IntN(n)
			v, ok := tt.Infer(g, s, k)
			if !ok {
				continue
			}
			if v < 0 || v > 1+1e-9 {
				return false
			}
			if w, direct := g.Weight(s, k); direct && v != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: EigenTrust outputs a probability vector.
func TestEigenTrustStochasticQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRand(seed)
		n := 1 + rng.IntN(15)
		var edges []graph.Edge
		for k := 0; k < rng.IntN(3*n); k++ {
			edges = append(edges, graph.Edge{From: rng.IntN(n), To: rng.IntN(n), Weight: rng.Float64()})
		}
		g, err := graph.New(n, edges)
		if err != nil {
			return false
		}
		ranks, _, err := DefaultEigenTrust().Ranks(g)
		if err != nil {
			return false
		}
		var sum float64
		for _, r := range ranks {
			if r < 0 || math.IsNaN(r) {
				return false
			}
			sum += r
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: total Appleseed trust is bounded by the injected energy.
func TestAppleseedEnergyBoundQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRand(seed)
		n := 2 + rng.IntN(12)
		var edges []graph.Edge
		for k := 0; k < rng.IntN(3*n); k++ {
			from, to := rng.IntN(n), rng.IntN(n)
			edges = append(edges, graph.Edge{From: from, To: to, Weight: 0.1 + 0.9*rng.Float64()})
		}
		g, err := graph.New(n, edges)
		if err != nil {
			return false
		}
		as := DefaultAppleseed()
		ranks, err := as.Rank(g, 0)
		if err != nil {
			return false
		}
		var total float64
		for _, r := range ranks {
			if r < 0 {
				return false
			}
			total += r
		}
		return total <= as.Injection+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// appleseedOracle is Appleseed.Rank as it was before out-weights were
// summed once per call: every iteration re-sums each active node's
// self-loop-free out-weight. Parameters are assumed valid.
func appleseedOracle(as Appleseed, g *graph.Graph, source int) []float64 {
	n := g.NumNodes()
	trust := make([]float64, n)
	in := make([]float64, n)
	nextIn := make([]float64, n)
	in[source] = as.Injection
	for iter := 0; iter < as.MaxIter; iter++ {
		active := false
		for i := range nextIn {
			nextIn[i] = 0
		}
		for v := 0; v < n; v++ {
			e := in[v]
			if e <= 0 {
				continue
			}
			if e > as.Tol {
				active = true
			}
			if v != source {
				trust[v] += (1 - as.Spreading) * e
			}
			forward := as.Spreading * e
			to, w := g.Out(v)
			total := 0.0
			for i, u := range to {
				if int(u) != v {
					total += w[i]
				}
			}
			backWeight := 0.0
			if v != source {
				backWeight = 1
				total += backWeight
			}
			if total <= 0 {
				if v != source {
					nextIn[source] += forward
				}
				continue
			}
			for i, u := range to {
				if int(u) == v {
					continue
				}
				nextIn[u] += forward * w[i] / total
			}
			if backWeight > 0 {
				nextIn[source] += forward * backWeight / total
			}
		}
		in, nextIn = nextIn, in
		if !active {
			break
		}
	}
	return trust
}

// Property: Rank returns the per-iteration oracle's bits for every
// source of random graphs with self-loops, dead ends (nodes whose only
// out-edge is a self-loop, or none) and isolated nodes.
func TestAppleseedMatchesOracleQuick(t *testing.T) {
	as := DefaultAppleseed()
	f := func(seed uint64) bool {
		rng := stats.NewRand(seed)
		n := 1 + rng.IntN(30)
		active := 1 + rng.IntN(n)
		var edges []graph.Edge
		for k := rng.IntN(4 * active); k > 0; k-- {
			from, to := rng.IntN(active), rng.IntN(active)
			if rng.IntN(5) == 0 {
				to = from
			}
			edges = append(edges, graph.Edge{From: from, To: to, Weight: rng.Float64()})
		}
		g, err := graph.New(n, edges)
		if err != nil {
			return false
		}
		for s := 0; s < n; s++ {
			got, err := as.Rank(g, s)
			if err != nil {
				return false
			}
			want := appleseedOracle(as, g, s)
			for v := range want {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					t.Logf("seed %d source %d node %d: Rank = %v, oracle = %v", seed, s, v, got[v], want[v])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
