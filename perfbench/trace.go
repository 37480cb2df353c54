package main

import (
	"bufio"
	"cmp"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// layer names a span's boundary: the public call into one of trustd's
// packages that the benchmark timed from outside.
type layer uint8

const (
	lClient layer = iota
	lRouter
	lShard
	lStoreRead
	lReplay
	lSnapshot
	lUpdate
	lSwap
	lAnomaly
	numLayers
)

var layerNames = [numLayers]string{
	"client", "router.handler", "server.handler", "store.ReadLogFrom", "store.Replay",
	"ratings.Builder.Snapshot", "TrustModel.Update", "Server.Swap", "anomaly.Update",
}

// span is one timed call. Spans of one request share id; ingest spans use
// batch ids offset by batchIDBase so the two id spaces never meet.
type span struct {
	id    uint64
	layer layer
	kind  uint8 // request kind, for client spans
	start int64 // nanoseconds since the tracer's base
	end   int64
}

const batchIDBase = 1 << 40

// tracer keeps spans in a preallocated buffer, claimed with one atomic
// add per span so recording takes no lock; spans past its capacity are
// counted, not kept.
type tracer struct {
	base    time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

const tracerCapacity = 1 << 20

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, tracerCapacity)}
}

func (t *tracer) record(id uint64, l layer, kind uint8, start, end time.Time) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{id: id, layer: l, kind: kind, start: int64(start.Sub(t.base)), end: int64(end.Sub(t.base))}
}

// recorded returns the spans kept so far. Call once recording has stopped.
func (t *tracer) recorded() []span {
	return t.spans[:min(t.n.Load(), int64(len(t.spans)))]
}

// tracedHandler wraps a node's handler with a span per request when the
// pointed-to tracer is set; with it nil the wrapper costs one atomic load.
func tracedHandler(tr *atomic.Pointer[tracer], l layer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := tr.Load()
		if t == nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(requestID(r.URL.RawQuery), l, 0, start, time.Now())
	})
}

// requestID returns the rid tag of a raw query, 0 when absent.
func requestID(rawQuery string) uint64 {
	i := strings.Index(rawQuery, "rid=")
	if i < 0 {
		return 0
	}
	v := rawQuery[i+len("rid="):]
	if j := strings.IndexByte(v, '&'); j >= 0 {
		v = v[:j]
	}
	id, _ := strconv.ParseUint(v, 10, 64)
	return id
}

// writeSpans writes the spans as tab-separated lines: id, layer, kind,
// start and end in nanoseconds since the run's trace base.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tlayer\tkind\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", s.id, layerNames[s.layer], s.kind, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durationsMs returns the durations of the spans of one layer, in
// milliseconds.
func durationsMs(spans []span, l layer) []float64 {
	var out []float64
	for _, s := range spans {
		if s.layer == l {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	return out
}

// stageSumsMs returns, per ingest batch, the summed durations of its
// store.ReadLogFrom, store.Replay, Builder.Snapshot, TrustModel.Update and
// Server.Swap spans, in milliseconds, in no particular order.
func stageSumsMs(spans []span) []float64 {
	sums := map[uint64]float64{}
	for _, s := range spans {
		if s.id >= batchIDBase && s.layer >= lStoreRead && s.layer <= lSwap {
			sums[s.id] += float64(s.end-s.start) / 1e6
		}
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}

// requestBreakdown splits each traced request into its parts: the router's
// self time (its span minus the part its shard spans cover), the shard
// handler time (the union of the request's shard spans), and the client
// remainder (the client span minus the outermost server span). Requests
// without a client span are skipped; without a router span the router
// part is absent and the remainder is taken against the shard spans.
func requestBreakdown(spans []span) (routerSelf, shard, remainder []float64) {
	byID := map[uint64][]span{}
	for _, s := range spans {
		if s.id != 0 && s.id < batchIDBase && (s.layer == lClient || s.layer == lRouter || s.layer == lShard) {
			byID[s.id] = append(byID[s.id], s)
		}
	}
	for _, group := range byID {
		var client, router *span
		var shards []span
		for i := range group {
			switch group[i].layer {
			case lClient:
				client = &group[i]
			case lRouter:
				router = &group[i]
			case lShard:
				shards = append(shards, group[i])
			}
		}
		if client == nil || len(shards) == 0 {
			continue
		}
		covered := unionNs(shards)
		shard = append(shard, float64(covered)/1e6)
		outer := covered
		if router != nil {
			outer = router.end - router.start
			routerSelf = append(routerSelf, float64(outer-covered)/1e6)
		}
		remainder = append(remainder, float64(client.end-client.start-outer)/1e6)
	}
	return routerSelf, shard, remainder
}

// unionNs returns the length of the union of the spans' intervals.
func unionNs(spans []span) int64 {
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	var total, curStart, curEnd int64
	for i, s := range spans {
		if i == 0 || s.start > curEnd {
			total += curEnd - curStart
			curStart, curEnd = s.start, s.end
			continue
		}
		curEnd = max(curEnd, s.end)
	}
	return total + curEnd - curStart
}
