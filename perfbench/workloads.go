package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"weboftrust/internal/graph"
	"weboftrust/internal/ratings"
	"weboftrust/internal/synth"
)

// setupReps is how many times a run boots and warms its topology; setup_s
// is the median, and the last boot serves the measured phase.
const setupReps = 5

// setupStats holds each repetition's times, in seconds.
type setupStats struct {
	boot, warm, total []float64
}

// setUp boots the topology setupReps times. Each repetition starts from a
// collected heap and is timed from the first boot call until warm returns;
// warm must finish every lazy set-up the measured phase would otherwise
// pay. All but the last stack are closed.
func setUp(o *options, logPath string, shards int, warm func(*stack) error) (*stack, setupStats, error) {
	var ss setupStats
	var st *stack
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
			st = nil
		}
		runtime.GC()
		t0 := time.Now()
		next, err := bootStack(logPath, shards, o.trace)
		if err != nil {
			return nil, ss, err
		}
		t1 := time.Now()
		if err := warm(next); err != nil {
			next.close()
			return nil, ss, fmt.Errorf("warm-up: %w", err)
		}
		t2 := time.Now()
		st = next
		ss.boot = append(ss.boot, t1.Sub(t0).Seconds())
		ss.warm = append(ss.warm, t2.Sub(t1).Seconds())
		ss.total = append(ss.total, t2.Sub(t0).Seconds())
	}
	fmt.Printf("# setup: boot %s s, warm-up %s s\n", fmtList(ss.boot), fmtList(ss.warm))
	return st, ss, nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

// graphOf returns the served web-of-trust graph; every shard holds all of
// it.
func graphOf(st *stack) *graph.Graph {
	model, _, _ := st.servers[0].Current()
	return model.WebOfTrust().Graph()
}

// warmPaths lists every key of a cached-read mix over the hot set, plus
// the global endpoints once each.
func warmPaths(hot []int, mix []mixEntry) []string {
	var paths []string
	for _, e := range mix {
		if e.kind == kRank || e.kind == kAnomalyTop {
			paths = append(paths, e.kind.path(0, 0))
			continue
		}
		for _, u := range hot {
			paths = append(paths, e.kind.path(u, 0))
		}
	}
	return paths
}

// memWindow measures the Go runtime over a measured phase.
type memWindow struct{ before runtime.MemStats }

func (w *memWindow) start() { runtime.ReadMemStats(&w.before) }

// stop returns the KiB allocated per completed request and the GC cycles
// since start.
func (w *memWindow) stop(requests int) (kbPerReq, gcCycles float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-w.before.TotalAlloc) / 1024
	return kb / float64(max(requests, 1)), float64(after.NumGC - w.before.NumGC)
}

// heapLiveMB is the live heap after a full collection, in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cacheCounters are the /metrics counters a phase reports deltas of.
type cacheCounters struct{ hits, misses, retries float64 }

func readCounters(st *stack) (cacheCounters, error) {
	var c cacheCounters
	var err error
	if c.hits, err = scrapeSum(st.nodes, "trustd_result_cache_hits_total"); err != nil {
		return c, err
	}
	if c.misses, err = scrapeSum(st.nodes, "trustd_result_cache_misses_total"); err != nil {
		return c, err
	}
	if st.router != nil {
		c.retries, err = scrapeSum([]*endpoint{st.router}, "trustrouter_retries_total")
	}
	return c, err
}

// phaseLayers records the per-layer metrics every workload measures the
// same way: the cache counters over the measured phase, the runtime
// deltas, and the set-up split.
func phaseLayers(rep *report, before, after cacheCounters, kbPerReq, gcCycles float64, ss setupStats) {
	hits, misses := after.hits-before.hits, after.misses-before.misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	fmt.Printf("# cache: %.0f hits, %.0f misses (hit ratio %.4f)\n", hits, misses, ratio)
	rep.layer("server.cache_hit_ratio", "ratio", ratio)
	rep.layer("server.cache_hits", "count", hits)
	rep.layer("server.cache_misses", "count", misses)
	rep.layer("router.retries", "count", after.retries-before.retries)
	rep.layer("runtime.alloc_kb_per_req", "KiB/req", kbPerReq)
	rep.layer("runtime.gc_cycles", "count", gcCycles)
	rep.layer("setup.boot_s", "s", median(ss.boot))
	rep.layer("setup.warm_s", "s", median(ss.warm))
}

// printLatency prints a phase's latency summary with its tail.
func printLatency(label string, res *loadResult) {
	line := fmt.Sprintf("# %s: %d requests, %d failed, p25 %.4f ms, p50 %.4f ms, p75 %.4f ms", label, res.completed, res.failed,
		res.lat.Quantile(0.25), res.lat.Quantile(0.5), res.lat.Quantile(0.75))
	if pct, ms, ok := res.lat.Tail(); ok {
		line += fmt.Sprintf(", p%g %.4f ms (%d samples, ungated)", pct, ms, res.lat.Count())
	}
	if res.rps > 0 {
		line += fmt.Sprintf(", %.2f req/s", res.rps)
	}
	fmt.Println(line)
	if res.firstErr != "" {
		fmt.Printf("# %s: first error: %s\n", label, res.firstErr)
	}
}

// appendLog appends encoded records to the event log.
func appendLog(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pollAll applies whatever the log holds past each node's checkpoint, all
// nodes at once as separate trustd processes would, and returns when every
// node has published its new version.
func pollAll(st *stack) error {
	errs := make([]error, len(st.tailers))
	var wg sync.WaitGroup
	for i, t := range st.tailers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := t.Poll()
			if err == nil && n == 0 {
				err = fmt.Errorf("node %d ingested nothing", i)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// postRunBatches is how many ingest batches the closed-loop workloads
// apply after their measured phase to report freshness.
const postRunBatches = 15

// ingestAfter measures freshness on a workload without concurrent ingest:
// it applies the batches one by one, each appended once the previous one is
// served and the heap collected (so no swap pays for its predecessor's
// garbage), and timed from its append until every node has published it.
func ingestAfter(st *stack, logPath string, batches [][]byte, rep *report) ([]float64, error) {
	var fresh []float64
	for i, data := range batches {
		runtime.GC()
		due := time.Now()
		if err := appendLog(logPath, data); err != nil {
			return nil, err
		}
		err := pollAll(st)
		rep.check(err == nil, "post-run ingest %d: %v", i, err)
		fresh = append(fresh, float64(time.Since(due))/1e6)
	}
	fmt.Printf("# post-run ingest: %d batches, freshness %s ms\n", len(fresh), fmtList(fresh))
	return fresh, nil
}

// writeTrace writes a traced phase's spans under the trace directory.
func writeTrace(o *options, spans []span, dropped int64) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.tsv", o.workload, o.seed))
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	fmt.Printf("# trace: %d spans written to %s (%d dropped)\n", len(spans), path, dropped)
	return nil
}

// inputs are what a run generates before set-up: the event log every node
// boots from, the ingest batches that extend it, and each user's activity.
type inputs struct {
	logPath  string
	batches  [][]byte
	activity []float64
}

// makeInputs writes the Medium preset's community and encodes n ingest
// batches that extend it. The community is the same on every run, so
// run-to-run differences measure trustd rather than the dataset; the seed
// varies everything drawn over it (request sequences, source orders, ingest
// batches). The generated community is dropped once the inputs are made, so
// the heap measured later holds trustd's copies only.
func makeInputs(o *options, n int) (*inputs, error) {
	logPath, c, err := writeCommunity(synth.Medium(), o.work)
	if err != nil {
		return nil, err
	}
	gen := newBatchGen(o.seed, c)
	batches := make([][]byte, n)
	for i := range batches {
		if _, batches[i], err = gen.next(); err != nil {
			return nil, err
		}
	}
	return &inputs{logPath: logPath, batches: batches, activity: c.activity()}, nil
}

// servedDataset is the dataset the first node currently serves.
func servedDataset(st *stack) *ratings.Dataset {
	model, _, _ := st.servers[0].Current()
	return model.Dataset()
}
