package weboftrust

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"weboftrust/internal/anomaly"
	"weboftrust/internal/golden"
	"weboftrust/internal/mat"
	"weboftrust/internal/propagation"
	"weboftrust/internal/ratings"
	"weboftrust/internal/synth"
)

// propagateGolden holds one SHA-256 per propagation algorithm,
// anomalyGolden one per anomaly signal, and modelGolden one per model
// artifact.
const (
	propagateGolden = "testdata/propagate.golden"
	anomalyGolden   = "testdata/anomaly.golden"
	modelGolden     = "testdata/model.golden"
)

// sampledModel is a seed-1 community and the stride of its sampled
// sources.
type sampledModel struct {
	name  string
	m     *TrustModel
	every int
}

// sampledModels derives the Small and Medium communities at seed 1,
// sampling every Small source and every mediumEvery-th Medium source.
func sampledModels(t *testing.T, mediumEvery int) []sampledModel {
	t.Helper()
	derive := func(cfg synth.Config) *TrustModel {
		cfg.Seed = 1
		d, _, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Derive(d)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	return []sampledModel{
		{"small", derive(synth.Small()), 1},
		{"medium", derive(synth.Medium()), mediumEvery},
	}
}

// TestPropagateGolden pins the exact vectors of every propagation
// algorithm to testdata/propagate.golden: per algorithm, one SHA-256 over
// the little-endian Float64bits of PropagateInto for every Small source
// and every 50th Medium source, in that order. A change that means to
// move a digest rewrites the file with -update and says which and why.
// Other architectures may fuse multiply-adds, so only amd64 checks.
func TestPropagateGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("propagation bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	models := sampledModels(t, 50)
	var got []byte
	for _, algo := range []PropagationAlgo{PropagateAppleseed, PropagateMoleTrust, PropagateTidalTrust} {
		h := sha256.New()
		var word [8]byte
		for _, c := range models {
			dst := make([]float64, c.m.Dataset().NumUsers())
			for u := 0; u < len(dst); u += c.every {
				if err := c.m.PropagateInto(algo, UserID(u), dst); err != nil {
					t.Fatal(err)
				}
				for _, x := range dst {
					binary.LittleEndian.PutUint64(word[:], math.Float64bits(x))
					h.Write(word[:])
				}
			}
		}
		got = fmt.Appendf(got, "%s %x\n", algo, h.Sum(nil))
	}
	golden.Check(t, propagateGolden, got)
}

// TestAnomalyGolden pins anomaly.Compute's scores to
// testdata/anomaly.golden: per signal (rating, graph, burst, total), one
// SHA-256 over the little-endian Float64bits of every user's value at
// Small and then Medium, seed 1, scored against the model's web. The
// amd64 rule and -update work as in TestPropagateGolden.
func TestAnomalyGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("anomaly bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	models := sampledModels(t, 1)
	scores := make([]*anomaly.Scores, len(models))
	for i, c := range models {
		scores[i] = anomaly.Compute(c.m.Dataset(), c.m.WebOfTrust().Graph())
	}
	var got []byte
	for _, sig := range []struct {
		name string
		of   func(s *anomaly.Scores, u ratings.UserID) float64
	}{
		{"rating", func(s *anomaly.Scores, u ratings.UserID) float64 { r, _, _ := s.Signals(u); return r }},
		{"graph", func(s *anomaly.Scores, u ratings.UserID) float64 { _, g, _ := s.Signals(u); return g }},
		{"burst", func(s *anomaly.Scores, u ratings.UserID) float64 { _, _, b := s.Signals(u); return b }},
		{"total", (*anomaly.Scores).Score},
	} {
		h := sha256.New()
		var word [8]byte
		for _, s := range scores {
			for u := 0; u < s.NumUsers(); u++ {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(sig.of(s, ratings.UserID(u))))
				h.Write(word[:])
			}
		}
		got = fmt.Appendf(got, "%s %x\n", sig.name, h.Sum(nil))
	}
	golden.Check(t, anomalyGolden, got)
}

// TestModelGolden pins the derived model to testdata/model.golden: per
// seed-1 Small and Medium model, one SHA-256 per artifact over its
// little-endian words — Riggs quality and rater reputation (each
// category's ids and value bits, in category order), E and A (row-major
// bits), the web's generosity vector, and the web's CSR rows (each row's
// length and target ids; then every weight's bits). The amd64 rule and
// -update work as in TestPropagateGolden.
func TestModelGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("model bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	var got []byte
	for _, c := range sampledModels(t, 1) {
		art := c.m.Artifacts()
		g := c.m.WebOfTrust().Graph()
		for _, a := range []struct {
			name  string
			write func(word func(uint64))
		}{
			{"quality", func(word func(uint64)) {
				for _, cr := range art.RiggsResults {
					for k, r := range cr.Reviews {
						word(uint64(r))
						word(math.Float64bits(cr.Quality[k]))
					}
				}
			}},
			{"reputation", func(word func(uint64)) {
				for _, cr := range art.RiggsResults {
					for k, u := range cr.Raters {
						word(uint64(u))
						word(math.Float64bits(cr.RaterRep[k]))
					}
				}
			}},
			{"expertise", func(word func(uint64)) { denseWords(art.Expertise, word) }},
			{"affinity", func(word func(uint64)) { denseWords(art.Affinity, word) }},
			{"generosity", func(word func(uint64)) {
				for _, k := range c.m.WebOfTrust().GenerosityVector() {
					word(math.Float64bits(k))
				}
			}},
			{"web.ids", func(word func(uint64)) {
				for v := 0; v < g.NumNodes(); v++ {
					to, _ := g.Out(v)
					word(uint64(len(to)))
					for _, j := range to {
						word(uint64(j))
					}
				}
			}},
			{"web.weights", func(word func(uint64)) {
				for v := 0; v < g.NumNodes(); v++ {
					_, w := g.Out(v)
					for _, x := range w {
						word(math.Float64bits(x))
					}
				}
			}},
		} {
			h := sha256.New()
			var buf [8]byte
			a.write(func(x uint64) {
				binary.LittleEndian.PutUint64(buf[:], x)
				h.Write(buf[:])
			})
			got = fmt.Appendf(got, "%s/%s %x\n", c.name, a.name, h.Sum(nil))
		}
	}
	golden.Check(t, modelGolden, got)
}

// denseWords feeds m's entries' bits to word in row-major order.
func denseWords(m *mat.Dense, word func(uint64)) {
	for i := 0; i < m.Rows(); i++ {
		for _, x := range m.Row(i) {
			word(math.Float64bits(x))
		}
	}
}

// TestPropagateTidalTrustMatchesInfer checks the served TidalTrust vector
// against the per-pair oracle, bit for bit: entry j of PropagateInto is
// Infer(source, j) at propagateDepth where that answers a positive value,
// and 0 elsewhere and at the source. Every Small source and every 200th
// Medium source.
func TestPropagateTidalTrustMatchesInfer(t *testing.T) {
	tt := propagation.TidalTrust{MaxDepth: propagateDepth}
	for _, c := range sampledModels(t, 200) {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			g := c.m.WebOfTrust().Graph()
			dst := make([]float64, g.NumNodes())
			for u := 0; u < len(dst); u += c.every {
				if err := c.m.PropagateInto(PropagateTidalTrust, UserID(u), dst); err != nil {
					t.Fatal(err)
				}
				for j, got := range dst {
					var want float64
					if v, ok := tt.Infer(g, u, j); ok && v > 0 {
						want = v
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("source %d sink %d: PropagateInto = %v, Infer = %v", u, j, got, want)
					}
				}
			}
		})
	}
}
