package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"weboftrust"
	"weboftrust/internal/core"
	"weboftrust/internal/ratings"
	"weboftrust/internal/server"
)

// runColdPropagate: two closed-loop clients in lockstep rounds → one
// unsharded trustd, nearly every request a propagation miss.
func runColdPropagate(o *options, rep *report) error {
	in, err := makeInputs(o, postRunBatches)
	if err != nil {
		return err
	}
	logPath := in.logPath
	var perm []int
	st, ss, err := setUp(o, logPath, 1, func(st *stack) error {
		if perm == nil {
			perm = newColdPerm(o.seed, connectedUsers(graphOf(st)))
		}
		// One landmark query builds the served sketch.
		last := perm[len(perm)-1]
		return fetchAll(st.front, []string{kLandmarkMoleTrust.path(last, 0), kRank.path(0, 0), kAnomalyTop.path(0, 0)})
	})
	if err != nil {
		return err
	}
	defer st.close()
	before, err := readCounters(st)
	if err != nil {
		return err
	}
	var mem memWindow
	mem.start()
	res := lockstepLoop(st.front, perm, o.seconds, nil)
	kbPerReq, gcCycles := mem.stop(res.completed)
	heap := heapLiveMB()
	after, err := readCounters(st)
	if err != nil {
		return err
	}
	printLatency("cold-propagate", &res)
	rep.attempted += res.completed + res.failed
	rep.failed += res.failed

	timings, err := checkFacade(servedDataset(st), st.front, perm, rep)
	if err != nil {
		return err
	}
	fresh, err := ingestAfter(st, logPath, in.batches, rep)
	if err != nil {
		return err
	}
	rep.e2eMetric("p50_ms", "ms", res.lat.Quantile(0.5))
	rep.e2eMetric("throughput_rps", "1/s", res.rps)
	rep.e2eMetric("freshness_p50_ms", "ms", median(fresh))
	rep.e2eMetric("setup_s", "s", median(ss.total))
	rep.e2eMetric("heap_live_mb", "MiB", heap)
	if !o.trace {
		return nil
	}

	phaseLayers(rep, before, after, kbPerReq, gcCycles, ss)
	// The post-run ingest moved the model on; a fresh permutation offset
	// keeps the traced phase missing the cache as the untraced one did.
	tr := newTracer()
	st.trace.Store(tr)
	traced := lockstepLoop(st.front, perm[len(perm)/2:], o.seconds, tr)
	st.trace.Store(nil)
	printLatency("cold-propagate traced", &traced)
	rep.attempted += traced.completed + traced.failed
	rep.failed += traced.failed
	spans := tr.recorded()
	_, handle, remainder := requestBreakdown(spans)
	printOverhead(&res, &traced)
	rep.layer("server.handle_ms", "ms", median(handle))
	rep.layer("router.self_ms", "ms", 0)
	rep.layer("client.remainder_ms", "ms", median(remainder))
	noIngestLayers(rep)
	rep.layer("propagation.appleseed_ms", "ms", median(timings.propagate[weboftrust.PropagateAppleseed]))
	rep.layer("propagation.moletrust_ms", "ms", median(timings.propagate[weboftrust.PropagateMoleTrust]))
	rep.layer("propagation.tidaltrust_ms", "ms", median(timings.propagate[weboftrust.PropagateTidalTrust]))
	rep.layer("propagation.landmark_build_ms", "ms", timings.buildMs)
	rep.layer("propagation.landmark_compose_ms", "ms", median(timings.composeMs))
	rep.layer("client.lateness_ms", "ms", 0)
	return writeTrace(o, spans, tr.dropped.Load())
}

// facadeTimings are the calls into the propagation layer the facade check
// times.
type facadeTimings struct {
	propagate [3][]float64 // TrustModel.PropagateInto per algorithm, ms
	buildMs   float64      // BuildLandmarkSketch for the served landmark mode, ms
	composeMs []float64    // ComposeLandmarks per call, ms
}

// facadeSample is how many sources of the run's sequence the facade check
// compares per result kind; TidalTrust, at hundreds of milliseconds per
// source, gets fewer.
const (
	facadeSample      = 6
	facadeTidalSample = 3
)

// checkFacade compares served propagation answers with the weboftrust
// facade over an independently derived model: exact results must equal
// PropagateInto ranked at k=10, moletrust landmark results must equal
// ComposeLandmarks over a sketch built from the same landmark selection.
// Scores round-trip JSON exactly, so the comparison is bitwise.
func checkFacade(d *ratings.Dataset, front string, perm []int, rep *report) (facadeTimings, error) {
	var ft facadeTimings
	ref, err := weboftrust.Derive(d)
	if err != nil {
		return ft, fmt.Errorf("facade model: %w", err)
	}
	cl := newClient()
	defer cl.CloseIdleConnections()
	compare := func(kind reqKind, u int, scores []float64) {
		want := core.RankRow(scores, 10)
		got, err := fetchPropagate(cl, front+kind.path(u, 0))
		ok := err == nil && len(got) == len(want)
		for i := 0; ok && i < len(want); i++ {
			ok = got[i].User == int(want[i].User) && got[i].Score == want[i].Score && got[i].Name == d.UserName(want[i].User)
		}
		rep.check(ok, "%s for user %d differs from the facade (%v)", kindNames[kind], u, err)
	}
	dst := make([]float64, d.NumUsers())
	for a := weboftrust.PropagateAppleseed; a <= weboftrust.PropagateTidalTrust; a++ {
		n := facadeSample
		if a == weboftrust.PropagateTidalTrust {
			n = facadeTidalSample
		}
		for _, u := range perm[:n] {
			t0 := time.Now()
			if err := ref.PropagateInto(a, ratings.UserID(u), dst); err != nil {
				return ft, err
			}
			ft.propagate[a] = append(ft.propagate[a], msSince(t0, time.Now()))
			compare(kAppleseed+reqKind(a), u, dst)
		}
	}
	ft.buildMs, ft.composeMs, err = timeLandmarks(ref, weboftrust.PropagateMoleTrust, perm[:facadeSample], func(u int, scores []float64) {
		compare(kLandmarkMoleTrust, u, scores)
	})
	return ft, err
}

// timeLandmarks times the landmark layer on model: one BuildLandmarkSketch
// for algo over the landmark selection a cold rank solve gives, then one
// ComposeLandmarks per source, handing each source's scores to visit when
// it is set. It returns the build time and each compose time, in ms.
func timeLandmarks(model *weboftrust.TrustModel, algo weboftrust.PropagationAlgo, sources []int, visit func(u int, scores []float64)) (buildMs float64, composeMs []float64, err error) {
	rank, _, err := model.GlobalRanks()
	if err != nil {
		return 0, nil, err
	}
	ids := weboftrust.SelectLandmarkIDs(rank, server.DefaultLandmarks)
	t0 := time.Now()
	sk, err := model.BuildLandmarkSketch(algo, ids)
	if err != nil {
		return 0, nil, err
	}
	buildMs = msSince(t0, time.Now())
	dst := make([]float64, model.Dataset().NumUsers())
	for _, u := range sources {
		t := time.Now()
		if err := model.ComposeLandmarks(sk, ratings.UserID(u), dst); err != nil {
			return 0, nil, err
		}
		composeMs = append(composeMs, msSince(t, time.Now()))
		if visit != nil {
			visit(u, dst)
		}
	}
	return buildMs, composeMs, nil
}

// fetchPropagate GETs a /v1/propagate answer and decodes its results.
func fetchPropagate(cl *http.Client, url string) ([]server.RankedUser, error) {
	var buf bytes.Buffer
	status, err := get(cl, url, &buf)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
	}
	var resp server.PropagateResponse
	if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}
