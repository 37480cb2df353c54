package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// loadResult is what one load phase measured.
type loadResult struct {
	lat       Histogram
	completed int
	failed    int
	// rps sums the clients' own rates. A closed-loop client's rate is its
	// cycle length over its median cycle time, so a stall from outside the
	// program (a descheduled VM) moves one cycle, not the rate; stalls the
	// program causes in every cycle still count, and all of them show in
	// the tail latency. An open-loop sender's rate is its completed
	// requests over the time to its last completion.
	rps float64
	// Open loop only: each request's generator error (idle-timer
	// overshoot carried into its send, capped) in milliseconds, and whether
	// a sender's delay past its due times kept growing.
	genErrMs []float64
	backlog  bool
	firstErr string
}

func (r *loadResult) add(o *loadResult) {
	r.lat.Merge(&o.lat)
	r.completed += o.completed
	r.failed += o.failed
	r.rps += o.rps
	r.genErrMs = append(r.genErrMs, o.genErrMs...)
	r.backlog = r.backlog || o.backlog
	if r.firstErr == "" {
		r.firstErr = o.firstErr
	}
}

// requester sends one client's requests over its own connection and, in a
// traced phase, records a client span per request under a fresh id.
type requester struct {
	front string
	cl    *http.Client
	buf   bytes.Buffer
	tr    *tracer
	ids   *atomic.Uint64
}

func newRequester(front string, tr *tracer, ids *atomic.Uint64) *requester {
	return &requester{front: front, cl: newClient(), tr: tr, ids: ids}
}

// do sends one request and returns when its whole body has been read. A
// failed request is counted in r and reported !ok.
func (q *requester) do(kind reqKind, user int, r *loadResult) (start, end time.Time, ok bool) {
	var rid uint64
	if q.tr != nil {
		rid = q.ids.Add(1)
	}
	start = time.Now()
	status, err := get(q.cl, q.front+kind.path(user, rid), &q.buf)
	end = time.Now()
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("%s user %d: status %d: %s", kindNames[kind], user, status, bytes.TrimSpace(q.buf.Bytes()))
	}
	if err != nil {
		r.failed++
		if r.firstErr == "" {
			r.firstErr = err.Error()
		}
		return start, end, false
	}
	r.completed++
	if q.tr != nil {
		q.tr.record(rid, lClient, uint8(kind), start, end)
	}
	return start, end, true
}

// closedLoop runs one client per stream for d: each sends its next request
// when the previous one has completed. A client checks the deadline only
// at the end of a cycle of hotCycle requests, so it always completes whole
// cycles and the mix it measured has exact shares.
func closedLoop(front string, streams []*hotStream, d time.Duration, tr *tracer) loadResult {
	var ids atomic.Uint64
	results := make([]loadResult, len(streams))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := newRequester(front, tr, &ids)
			defer q.cl.CloseIdleConnections()
			r := &results[c]
			var cycles []float64
			cycleStart := start
			for n := 0; n%hotCycle != 0 || time.Now().Before(deadline); n++ {
				kind, user := streams[c].next()
				t0, t1, ok := q.do(kind, user, r)
				if ok {
					r.lat.Record(t1.Sub(t0))
				}
				if (n+1)%hotCycle == 0 {
					cycles = append(cycles, t1.Sub(cycleStart).Seconds())
					cycleStart = t1
				}
			}
			r.rps = hotCycle / median(cycles)
		}()
	}
	wg.Wait()
	var out loadResult
	for i := range results {
		out.add(&results[i])
	}
	return out
}

// lockstepLoop runs cold-propagate's two closed-loop clients in rounds of
// coldRound until d has passed at a round's end: within a group each client
// sends its next request when its previous one has completed, and a group
// starts once both clients have finished the one before it. The rate is a
// round's requests over the median round time.
func lockstepLoop(front string, perm []int, d time.Duration, tr *tracer) loadResult {
	var ids atomic.Uint64
	var results [2]loadResult
	var qs [2]*requester
	var srcs [2]*coldSources
	for c := range qs {
		qs[c] = newRequester(front, tr, &ids)
		defer qs[c].cl.CloseIdleConnections()
		srcs[c] = &coldSources{perm: perm, client: c}
	}
	perRound := 0
	for _, g := range coldRound {
		perRound += len(qs) * g.n
	}
	var rounds []float64
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		r0 := time.Now()
		for _, g := range coldRound {
			var wg sync.WaitGroup
			for c := range qs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < g.n; j++ {
						t0, t1, ok := qs[c].do(g.kind, srcs[c].next(), &results[c])
						if ok {
							results[c].lat.Record(t1.Sub(t0))
						}
					}
				}()
			}
			wg.Wait()
		}
		rounds = append(rounds, time.Since(r0).Seconds())
	}
	var out loadResult
	for i := range results {
		out.add(&results[i])
	}
	out.rps = float64(perRound) / median(rounds)
	return out
}

// generatorError returns the part of a request's delay past its due time
// that the load generator caused rather than the program: the time from
// when the request could have been sent — its due time, or the end of the
// sender's previous request less that request's own generator error,
// whichever is later — to when it was sent, at most limit. An idle sender
// that sleeps until the due time and wakes late contributes its timer
// overshoot; a sender still busy with a request the program stalled
// contributes nothing, so the stall is charged to every request it delays.
// The senders share trustd's process and CPUs, so a wake-up can also be late
// because the program held every CPU (a swap's parallel update, a
// collection). limit is the overshoot measured with no ingest running;
// lateness beyond it is charged to the program.
func generatorError(due, send, prevEnd time.Time, prevErr, limit time.Duration) time.Duration {
	ready := due
	if eff := prevEnd.Add(-prevErr); eff.After(ready) {
		ready = eff
	}
	return min(max(send.Sub(ready), 0), limit)
}

// openLoopLatency is a request's latency under the open-loop rule: from its
// due time to the end of its body, less the generator's error.
func openLoopLatency(due, end time.Time, genErr time.Duration) time.Duration {
	return end.Sub(due) - genErr
}

// openLoop runs one sender per stream for d. Sender c sends at fixed due
// times, every period from start+c·period/len(streams), whether or not the
// program kept up; a sender has one request in flight, so a stall delays
// the requests due behind it and they are charged for it. Each request's
// generator error is capped at limit.
func openLoop(front string, streams []*hotStream, period, d, limit time.Duration, tr *tracer) loadResult {
	var ids atomic.Uint64
	results := make([]loadResult, len(streams))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := newRequester(front, tr, &ids)
			defer q.cl.CloseIdleConnections()
			r := &results[c]
			var prevEnd time.Time
			var prevErr time.Duration
			var sendDelayMs []float64
			var last time.Time
			for k := 0; ; k++ {
				due := start.Add(time.Duration(k)*period + time.Duration(c)*period/time.Duration(len(streams)))
				if due.After(deadline) {
					break
				}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				kind, user := streams[c].next()
				send, end, ok := q.do(kind, user, r)
				genErr := generatorError(due, send, prevEnd, prevErr, limit)
				if ok {
					r.lat.Record(openLoopLatency(due, end, genErr))
				}
				r.genErrMs = append(r.genErrMs, float64(genErr)/1e6)
				sendDelayMs = append(sendDelayMs, float64(send.Sub(due))/1e6)
				prevEnd, prevErr = end, genErr
				last = end
			}
			r.rps = float64(r.completed) / last.Sub(start).Seconds()
			r.backlog = growing(sendDelayMs, senderBacklogSlackMs)
		}()
	}
	wg.Wait()
	var out loadResult
	for i := range results {
		out.add(&results[i])
	}
	return out
}

// senderBacklogSlackMs is how far an open-loop sender's typical delay past
// its due times may rise between the first and last quarter of a run
// before the run counts as backlogged.
const senderBacklogSlackMs = 25

// growing reports a backlog: the median of the series' last quarter
// exceeds the median of its first quarter by more than slack. A queue
// that keeps up returns to the same level after every stall; one that
// does not keeps climbing.
func growing(series []float64, slack float64) bool {
	n := len(series) / 4
	if n == 0 {
		return false
	}
	return median(series[len(series)-n:])-median(series[:n]) > slack
}

// median returns the median of xs (0 for none) without modifying it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantileOf returns the nearest-rank q quantile of xs (0 for none) without
// modifying it.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}
