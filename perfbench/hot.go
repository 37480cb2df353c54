package main

import (
	"bytes"
	"fmt"
	"net/http"
	"slices"

	"weboftrust/internal/server"
)

// runHotReads: two closed-loop clients → router → two trustd shards, every
// request a cache hit on a warmed hot set.
func runHotReads(o *options, rep *report) error {
	in, err := makeInputs(o, postRunBatches)
	if err != nil {
		return err
	}
	logPath := in.logPath
	var hot hotSet
	st, ss, err := setUp(o, logPath, 2, func(st *stack) error {
		if hot.users == nil {
			hot = pickHotSet(in.activity, connectedUsers(graphOf(st)), hotReadsSet)
		}
		return fetchAll(st.front, warmPaths(hot.users, hotMix))
	})
	if err != nil {
		return err
	}
	defer st.close()
	streams := func() []*hotStream {
		return []*hotStream{newHotStream(o.seed, 0, hot, hotMix), newHotStream(o.seed, 1, hot, hotMix)}
	}

	before, err := readCounters(st)
	if err != nil {
		return err
	}
	var mem memWindow
	mem.start()
	res := closedLoop(st.front, streams(), o.seconds, nil)
	kbPerReq, gcCycles := mem.stop(res.completed)
	heap := heapLiveMB()
	after, err := readCounters(st)
	if err != nil {
		return err
	}
	printLatency("hot-reads", &res)
	rep.attempted += res.completed + res.failed
	rep.failed += res.failed

	if err := checkRouted(logPath, st.front, streams(), rep); err != nil {
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
	tr := newTracer()
	st.trace.Store(tr)
	traced := closedLoop(st.front, streams(), o.seconds, tr)
	st.trace.Store(nil)
	printLatency("hot-reads traced", &traced)
	rep.attempted += traced.completed + traced.failed
	rep.failed += traced.failed
	spans := tr.recorded()
	routerSelf, handle, remainder := requestBreakdown(spans)
	fmt.Printf("# per request (medians): router self %.4f ms + shard handler %.4f ms + client remainder %.4f ms; client total %.4f ms\n",
		median(routerSelf), median(handle), median(remainder), traced.lat.Quantile(0.5))
	printOverhead(&res, &traced)
	rep.layer("server.handle_ms", "ms", median(handle))
	rep.layer("router.self_ms", "ms", median(routerSelf))
	rep.layer("client.remainder_ms", "ms", median(remainder))
	noIngestLayers(rep)
	noPropagationLayers(rep)
	rep.layer("client.lateness_ms", "ms", 0)
	return writeTrace(o, spans, tr.dropped.Load())
}

// printOverhead prints traced minus untraced for the read metrics of a
// phase.
func printOverhead(untraced, traced *loadResult) {
	fmt.Printf("# tracing overhead (traced - untraced): p50_ms %+.4f, throughput_rps %+.2f\n",
		traced.lat.Quantile(0.5)-untraced.lat.Quantile(0.5), traced.rps-untraced.rps)
}

// noIngestLayers reports the ingest layers as 0 on workloads whose
// measured phase ingests nothing.
func noIngestLayers(rep *report) {
	for _, name := range []string{"store.read_ms", "ratings.replay_ms", "ratings.snapshot_ms", "core.update_ms",
		"server.swap_ms", "anomaly.update_ms", "server.ingest_wait_ms", "ingest.stages_sum_ms"} {
		rep.layer(name, "ms", 0)
	}
	for _, name := range []string{"core.dirty_users", "server.carryover_kept", "server.carryover_dropped"} {
		rep.layer(name, "count", 0)
	}
}

// noPropagationLayers reports the propagation layers as 0 on workloads that
// do not time them.
func noPropagationLayers(rep *report) {
	for _, name := range []string{"propagation.appleseed_ms", "propagation.moletrust_ms", "propagation.tidaltrust_ms",
		"propagation.landmark_build_ms", "propagation.landmark_compose_ms"} {
		rep.layer(name, "ms", 0)
	}
}

// checkRouted compares routed answers with an unsharded reference server
// booted from the same log: status and body must be byte-identical. The
// sample is the first requests of the workload's own sequences.
func checkRouted(logPath, front string, streams []*hotStream, rep *report) error {
	refSrv, _, err := server.Open(logPath, 0, server.Options{})
	if err != nil {
		return fmt.Errorf("reference server: %w", err)
	}
	ref, err := listen(refSrv.Handler())
	if err != nil {
		return err
	}
	defer ref.close()
	var paths []string
	for _, s := range streams {
		for i := 0; i < 60; i++ {
			kind, user := s.next()
			paths = append(paths, kind.path(user, 0))
		}
	}
	slices.Sort(paths)
	paths = slices.Compact(paths)
	cl := newClient()
	defer cl.CloseIdleConnections()
	refCl := newClient()
	defer refCl.CloseIdleConnections()
	var got, want bytes.Buffer
	for _, p := range paths {
		gs, gerr := get(cl, front+p, &got)
		ws, werr := get(refCl, ref.url+p, &want)
		rep.check(gerr == nil && werr == nil && gs == ws && gs == http.StatusOK && bytes.Equal(got.Bytes(), want.Bytes()),
			"routed %s differs from the unsharded reference: %d %q vs %d %q (%v, %v)", p, gs, got.String(), ws, want.String(), gerr, werr)
	}
	return nil
}
