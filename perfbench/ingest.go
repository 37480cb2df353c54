package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sync"
	"time"

	"weboftrust"
	"weboftrust/internal/anomaly"
	"weboftrust/internal/ratings"
	"weboftrust/internal/server"
	"weboftrust/internal/store"
)

const (
	// ingestInterval is the time between batches. A Medium swap with the
	// appleseed landmark sketch built takes about a third of it, so a batch
	// never queues behind the previous one, and most reads, the median
	// among them, fall outside a swap.
	ingestInterval = 1500 * time.Millisecond
	// readPeriod is each of the two open-loop senders' time between
	// requests: 800 reads per second in all.
	readPeriod = 2500 * time.Microsecond
)

// batchRecord is what one ingest tick measured, in milliseconds from the
// batch's due time.
type batchRecord struct {
	waitMs  float64 // until the poll started
	freshMs float64 // until the new version was published
}

// runIngestMixed: two open-loop senders → one unsharded trustd while a
// seeded batch stream is appended to its log and applied once per interval.
func runIngestMixed(o *options, rep *report) error {
	// Every batch is generated and validated before set-up.
	phases := 1
	if o.trace {
		phases = 2
	}
	in, err := makeInputs(o, phases*(int(o.seconds/ingestInterval)+1))
	if err != nil {
		return err
	}
	logPath, batches := in.logPath, in.batches
	var hot hotSet
	st, ss, err := setUp(o, logPath, 1, func(st *stack) error {
		if hot.users == nil {
			hot = pickHotSet(in.activity, connectedUsers(graphOf(st)), ingestHotSet)
		}
		return fetchAll(st.front, warmPaths(hot.users, ingestMix))
	})
	if err != nil {
		return err
	}
	defer st.close()
	streams := func(phase int) []*hotStream {
		return []*hotStream{newHotStream(o.seed+uint64(phase)<<32, 0, hot, ingestMix), newHotStream(o.seed+uint64(phase)<<32, 1, hot, ingestMix)}
	}
	srv, tailer := st.servers[0], st.tailers[0]

	limit, err := calibrate(st, streams(2), rep)
	if err != nil {
		return err
	}
	before, err := readCounters(st)
	if err != nil {
		return err
	}
	var mem memWindow
	mem.start()
	res, ticks, ingestErr := mixedPhase(st, streams(0), o.seconds, limit, nil, func(due time.Time, i int) (batchRecord, error) {
		if err := appendLog(logPath, batches[i]); err != nil {
			return batchRecord{}, err
		}
		polled := time.Now()
		if n, err := tailer.Poll(); err != nil || n == 0 {
			return batchRecord{}, fmt.Errorf("poll batch %d: %d events, %v", i, n, err)
		}
		return batchRecord{waitMs: msSince(due, polled), freshMs: msSince(due, time.Now())}, nil
	})
	kbPerReq, gcCycles := mem.stop(res.completed)
	heap := heapLiveMB()
	after, err := readCounters(st)
	if err != nil {
		return err
	}
	fresh, waits := batchSeries(ticks)
	reportMixed(rep, "ingest-mixed", &res, fresh, waits, ingestErr)
	lateness := median(res.genErrMs)

	builder, err := checkCold(logPath, srv, st.front, hot.users, rep)
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
	rep.layer("client.lateness_ms", "ms", lateness)
	// The traced phase continues the stream where the untraced one stopped.
	return tracedIngest(o, rep, st, logPath, builder, batches[len(ticks):], streams(1), limit, &res, median(fresh), hot.users)
}

// calibrationWindow is how long the open-loop senders run with no ingest
// before the measured phase, to measure their own idle-timer overshoot.
const calibrationWindow = 3 * time.Second

// calibrate runs the senders with no ingest and returns the p99 of their
// generator error, the most a request's lateness may be excused in the
// phases that follow. Without swaps, the lateness of an idle sender is the
// timer's and the scheduler's, not the ingest path's.
func calibrate(st *stack, streams []*hotStream, rep *report) (time.Duration, error) {
	res := openLoop(st.front, streams, readPeriod, calibrationWindow, time.Duration(math.MaxInt64), nil)
	rep.attempted += res.completed + res.failed
	rep.failed += res.failed
	if res.failed > 0 {
		return 0, fmt.Errorf("calibration: %d requests failed: %s", res.failed, res.firstErr)
	}
	p99 := quantileOf(res.genErrMs, 0.99)
	fmt.Printf("# open-loop calibration without ingest: %d requests, sender overshoot p50 %.4f ms, p99 %.4f ms (the cap on excused lateness)\n",
		res.completed, median(res.genErrMs), p99)
	return time.Duration(p99 * 1e6), nil
}

func msSince(from, to time.Time) float64 { return float64(to.Sub(from)) / 1e6 }

// mixedPhase runs the open-loop senders and, beside them, one ingest tick
// per interval: tick i is due at start + (i+½)·interval and runs as soon as
// both it is due and tick i−1 has finished, so a tick that overruns its
// interval shows as the next one's wait.
func mixedPhase(st *stack, streams []*hotStream, d, limit time.Duration, tr *tracer, tick func(due time.Time, i int) (batchRecord, error)) (loadResult, []batchRecord, error) {
	var ticks []batchRecord
	var tickErr error
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i)*ingestInterval + ingestInterval/2)
			if due.After(start.Add(d)) {
				return
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			rec, err := tick(due, i)
			if err != nil {
				tickErr = err
				return
			}
			ticks = append(ticks, rec)
		}
	}()
	res := openLoop(st.front, streams, readPeriod, d, limit, tr)
	wg.Wait()
	return res, ticks, tickErr
}

func batchSeries(ticks []batchRecord) (fresh, waits []float64) {
	for _, t := range ticks {
		fresh = append(fresh, t.freshMs)
		waits = append(waits, t.waitMs)
	}
	return fresh, waits
}

// reportMixed counts a mixed phase's operations and failures, including a
// backlog in either the senders or the ingest ticks.
func reportMixed(rep *report, label string, res *loadResult, fresh, waits []float64, ingestErr error) {
	printLatency(label, res)
	fmt.Printf("# %s: %d batches, freshness p50 %.3f ms (max %.3f), ingest wait p50 %.3f ms (max %.3f), sender lateness p50 %.4f ms\n",
		label, len(fresh), median(fresh), maxOf(fresh), median(waits), maxOf(waits), median(res.genErrMs))
	rep.attempted += res.completed + res.failed + len(fresh)
	rep.failed += res.failed
	if ingestErr != nil {
		rep.problem("%s ingest: %v", label, ingestErr)
	}
	if len(fresh) == 0 {
		rep.problem("%s ingested no batch", label)
	}
	if res.backlog {
		rep.problem("%s: an open-loop sender fell further and further behind its schedule", label)
	}
	if growing(waits, float64(ingestInterval/time.Millisecond)/4) {
		rep.problem("%s: ingest ticks queued further and further behind their due times", label)
	}
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// versionField matches the only part of a body that depends on the
// serving history rather than on the model.
var versionField = regexp.MustCompile(`"version":[0-9]+`)

// checkCold derives a model from scratch over the log prefix the server
// has applied, serves it with server.New, and compares a fixed sample of
// answers byte for byte, version aside: incremental ingest must equal a
// cold derive. Rank and landmark answers follow the warm rank chain, which
// is bounded in drift but not bitwise equal to a cold solve, so only their
// shape is checked. It returns a builder positioned at the served offset.
func checkCold(logPath string, srv *server.Server, front string, hot []int, rep *report) (*ratings.Builder, error) {
	_, offset, _ := srv.Current()
	raw, err := os.ReadFile(logPath)
	if err != nil {
		return nil, err
	}
	if int64(len(raw)) < offset {
		return nil, fmt.Errorf("served offset %d past the log's end %d", offset, len(raw))
	}
	events, _, err := store.ReadLogFrom(bytes.NewReader(raw[:offset]), 0)
	if err != nil {
		return nil, fmt.Errorf("read log prefix: %w", err)
	}
	builder := ratings.NewBuilder()
	if err := store.Replay(events, builder); err != nil {
		return nil, err
	}
	d := builder.Snapshot()
	model, err := weboftrust.Derive(d)
	if err != nil {
		return nil, err
	}
	ref := server.New(model, offset, server.Options{}).Handler()
	newest := d.NumUsers() - 1 // a user the ingest stream added
	users := append([]int{newest}, hot[:6]...)
	var paths []string
	for _, u := range users {
		paths = append(paths, kTopK.path(u, 0), kAppleseed.path(u, 0), kMoleTrust.path(u, 0),
			fmt.Sprintf("/v1/neighbors?user=%d", u), fmt.Sprintf("/v1/anomaly?user=%d", u))
	}
	for _, u := range users[:2] {
		paths = append(paths, kTidalTrust.path(u, 0))
	}
	cl := newClient()
	defer cl.CloseIdleConnections()
	var got bytes.Buffer
	for _, p := range paths {
		status, err := get(cl, front+p, &got)
		rec := httptest.NewRecorder()
		ref.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		ok := err == nil && status == http.StatusOK && rec.Code == http.StatusOK &&
			bytes.Equal(versionField.ReplaceAll(got.Bytes(), nil), versionField.ReplaceAll(rec.Body.Bytes(), nil))
		rep.check(ok, "served %s differs from a cold derive at offset %d: %q vs %q (%v)", p, offset, got.String(), rec.Body.String(), err)
	}
	shapes := []string{"/v1/rank?k=10"}
	for _, u := range users[:3] {
		shapes = append(shapes, kLandmarkAppleseed.path(u, 0))
	}
	for _, p := range shapes {
		status, err := get(cl, front+p, &got)
		var body struct {
			Approx  string            `json:"approx"`
			Results []json.RawMessage `json:"results"`
		}
		if err == nil {
			err = json.Unmarshal(got.Bytes(), &body)
		}
		ok := err == nil && status == http.StatusOK && len(body.Results) <= 10 &&
			(p == shapes[0]) == (body.Approx == "") && (p != shapes[0] || len(body.Results) == 10)
		rep.check(ok, "served %s has the wrong shape: %d %q (%v)", p, status, got.String(), err)
	}
	return builder, nil
}

// tracedIngest repeats the mixed phase with spans: reads carry request
// ids, and each tick composes the calls Tailer.Poll makes — store.ReadLogFrom,
// store.Replay, Builder.Snapshot, TrustModel.Update, Server.Swap — so each
// gets its own span. anomaly.Update runs as a shadow call on the same
// swap's inputs after the swap is published, outside every timed path.
func tracedIngest(o *options, rep *report, st *stack, logPath string, builder *ratings.Builder, batches [][]byte,
	streams []*hotStream, limit time.Duration, untraced *loadResult, untracedFresh float64, hot []int) error {
	srv := st.servers[0]
	cur, offset, _ := srv.Current()
	scores := anomaly.Compute(cur.Dataset(), cur.WebOfTrust().Graph())
	counters, err := scrape(st.front)
	if err != nil {
		return err
	}
	tr := newTracer()
	var dirty, kept, dropped []float64
	tick := func(due time.Time, i int) (batchRecord, error) {
		id := uint64(batchIDBase + i)
		if err := appendLog(logPath, batches[i]); err != nil {
			return batchRecord{}, err
		}
		polled := time.Now()
		f, err := os.Open(logPath)
		if err != nil {
			return batchRecord{}, err
		}
		events, next, err := store.ReadLogFrom(f, offset)
		f.Close()
		t1 := time.Now()
		tr.record(id, lStoreRead, 0, polled, t1)
		if err != nil || len(events) == 0 {
			return batchRecord{}, fmt.Errorf("read batch %d: %d events, %v", i, len(events), err)
		}
		if err := store.Replay(events, builder); err != nil {
			return batchRecord{}, err
		}
		t2 := time.Now()
		tr.record(id, lReplay, 0, t1, t2)
		newD := builder.Snapshot()
		t3 := time.Now()
		tr.record(id, lSnapshot, 0, t2, t3)
		prev, _, _ := srv.Current()
		model, err := prev.Update(newD)
		if err != nil {
			return batchRecord{}, err
		}
		t4 := time.Now()
		tr.record(id, lUpdate, 0, t3, t4)
		srv.Swap(model, next)
		t5 := time.Now()
		tr.record(id, lSwap, 0, t4, t5)
		offset = next
		rec := batchRecord{waitMs: msSince(due, polled), freshMs: msSince(due, t5)}

		marked := model.DirtyUsers()
		n := 0
		for _, m := range marked {
			if m {
				n++
			}
		}
		dirty = append(dirty, float64(n))
		t6 := time.Now()
		scores = anomaly.Update(scores, prev.Dataset(), newD, prev.WebOfTrust().Graph(), model.WebOfTrust().Graph(), marked)
		tr.record(id, lAnomaly, 0, t6, time.Now())
		// The carry-over counters move only at swaps, so successive scrapes
		// outside the timed path give per-swap deltas.
		c, err := scrape(st.front)
		if err != nil {
			return batchRecord{}, err
		}
		kept = append(kept, c["trustd_cache_carryover_total"]-counters["trustd_cache_carryover_total"])
		dropped = append(dropped, c["trustd_cache_carryover_dropped_total"]-counters["trustd_cache_carryover_dropped_total"])
		counters = c
		return rec, nil
	}
	st.trace.Store(tr)
	res, ticks, ingestErr := mixedPhase(st, streams, o.seconds, limit, tr, tick)
	st.trace.Store(nil)
	fresh, waits := batchSeries(ticks)
	reportMixed(rep, "ingest-mixed traced", &res, fresh, waits, ingestErr)
	if ingestErr == nil && scores.NumUsers() != builder.NumUsers() {
		return errors.New("shadow anomaly chain lost track of the served dataset")
	}
	spans := tr.recorded()
	_, handle, remainder := requestBreakdown(spans)
	printOverhead(untraced, &res)
	fmt.Printf("# tracing overhead (traced - untraced): freshness_p50_ms %+.3f\n", median(fresh)-untracedFresh)
	sums := stageSumsMs(spans)
	fmt.Printf("# ingest accounting: median per-batch sum of the read, replay, snapshot, update and swap spans %.3f ms against untraced freshness_p50_ms %.3f ms (ratio %.3f; traced freshness p50 %.3f ms)\n",
		median(sums), untracedFresh, median(sums)/untracedFresh, median(fresh))
	rep.layer("store.read_ms", "ms", median(durationsMs(spans, lStoreRead)))
	rep.layer("ratings.replay_ms", "ms", median(durationsMs(spans, lReplay)))
	rep.layer("ratings.snapshot_ms", "ms", median(durationsMs(spans, lSnapshot)))
	rep.layer("core.update_ms", "ms", median(durationsMs(spans, lUpdate)))
	rep.layer("core.dirty_users", "count", median(dirty))
	rep.layer("server.swap_ms", "ms", median(durationsMs(spans, lSwap)))
	rep.layer("anomaly.update_ms", "ms", median(durationsMs(spans, lAnomaly)))
	rep.layer("server.ingest_wait_ms", "ms", median(waits))
	rep.layer("ingest.stages_sum_ms", "ms", median(sums))
	rep.layer("server.carryover_kept", "count", median(kept))
	rep.layer("server.carryover_dropped", "count", median(dropped))
	rep.layer("server.handle_ms", "ms", median(handle))
	rep.layer("router.self_ms", "ms", 0)
	rep.layer("client.remainder_ms", "ms", median(remainder))
	rep.layer("propagation.appleseed_ms", "ms", 0)
	rep.layer("propagation.moletrust_ms", "ms", 0)
	rep.layer("propagation.tidaltrust_ms", "ms", 0)
	// The landmark layer is timed on the served model, outside the measured
	// phases.
	served, _, _ := srv.Current()
	buildMs, composeMs, err := timeLandmarks(served, weboftrust.PropagateAppleseed, hot, nil)
	if err != nil {
		return err
	}
	rep.layer("propagation.landmark_build_ms", "ms", buildMs)
	rep.layer("propagation.landmark_compose_ms", "ms", median(composeMs))
	return writeTrace(o, spans, tr.dropped.Load())
}
