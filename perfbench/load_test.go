package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestOpenLoopTimingRule(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := func(x float64) time.Time { return t0.Add(time.Duration(x * float64(time.Millisecond))) }
	d := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	for _, tc := range []struct {
		name          string
		due, send     time.Time
		prevEnd       time.Time
		prevErr       time.Duration
		end           time.Time
		wantErr, want time.Duration
	}{
		{
			// The sender slept until its due time and woke 2 ms late: the
			// overshoot is the generator's, the request took 0.3 ms.
			name: "idle overshoot excluded",
			due:  ms(10), send: ms(12), prevEnd: ms(5), end: ms(12.3),
			wantErr: d(2), want: d(0.3),
		},
		{
			// The previous request stalled 30 ms past this one's due time:
			// the wait is the program's and is charged.
			name: "stall charged",
			due:  ms(10), send: ms(40), prevEnd: ms(40), end: ms(40.3),
			wantErr: 0, want: d(30.3),
		},
		{
			// The previous request was sent 3 ms late by an overshoot and so
			// ended 3 ms late too, past this one's due time; this request,
			// sent right after it, carries the same 3 ms of generator error.
			// Of its 4.3 ms past due, 1 ms is the previous request's own
			// service running past this due time, which stays charged.
			name: "carried overshoot excluded",
			due:  ms(10), send: ms(14), prevEnd: ms(14), prevErr: d(3), end: ms(14.3),
			wantErr: d(3), want: d(1.3),
		},
		{
			// An overshoot that ended before this request's due time carries
			// nothing; this request's own 2 ms late send is excluded.
			name: "earlier overshoot not carried",
			due:  ms(10), send: ms(12), prevEnd: ms(9), prevErr: d(3), end: ms(12.3),
			wantErr: d(2), want: d(0.3),
		},
		{
			// A stall on top of an earlier overshoot: only the overshoot is
			// removed.
			name: "stall after overshoot",
			due:  ms(10), send: ms(25), prevEnd: ms(25), prevErr: d(1), end: ms(25.5),
			wantErr: d(1), want: d(14.5),
		},
		{
			// An idle sender woke 9 ms late, past the 4 ms the timer
			// overshot by without ingest: the program held the CPUs for the
			// rest, which is charged.
			name: "contention beyond the limit charged",
			due:  ms(10), send: ms(19), prevEnd: ms(5), end: ms(19.3),
			wantErr: d(4), want: d(5.3),
		},
		{
			// The previous request carried a capped error; the carry is
			// capped as well.
			name: "carried error capped",
			due:  ms(10), send: ms(20), prevEnd: ms(20), prevErr: d(4), end: ms(20.3),
			wantErr: d(4), want: d(6.3),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			genErr := generatorError(tc.due, tc.send, tc.prevEnd, tc.prevErr, d(4))
			if genErr != tc.wantErr {
				t.Fatalf("generator error %v, want %v", genErr, tc.wantErr)
			}
			if got := openLoopLatency(tc.due, tc.end, genErr); (got - tc.want).Abs() > time.Microsecond {
				t.Fatalf("latency %v, want %v", got, tc.want)
			}
		})
	}
}

func TestGrowingDetectsBacklog(t *testing.T) {
	steady := make([]float64, 400)
	climbing := make([]float64, 400)
	for i := range steady {
		steady[i] = 0.5
		if i%50 == 0 {
			steady[i] = 80 // isolated stalls that the queue recovers from
		}
		climbing[i] = float64(i) * 0.2
	}
	if growing(steady, senderBacklogSlackMs) {
		t.Fatal("recovered stalls reported as a backlog")
	}
	if !growing(climbing, senderBacklogSlackMs) {
		t.Fatal("a delay that keeps climbing was not reported")
	}
	if growing([]float64{1, 100}, senderBacklogSlackMs) {
		t.Fatal("too few samples to judge")
	}
}

func TestSpanBreakdowns(t *testing.T) {
	spans := []span{
		{id: 1, layer: lClient, start: 0, end: 1000},
		{id: 1, layer: lRouter, start: 100, end: 900},
		{id: 1, layer: lShard, start: 200, end: 500},
		{id: 1, layer: lShard, start: 400, end: 700}, // a fan-out: union 200..700
		{id: 2, layer: lClient, start: 0, end: 600},
		{id: 2, layer: lShard, start: 100, end: 400},
		{id: batchIDBase, layer: lStoreRead, start: 0, end: 1e6},
		{id: batchIDBase, layer: lSwap, start: 3e6, end: 5e6},
		{id: batchIDBase, layer: lAnomaly, start: 5e6, end: 9e6},
		{id: batchIDBase + 1, layer: lUpdate, start: 0, end: 4e6},
	}
	sums := stageSumsMs(spans)
	slices.Sort(sums)
	// Batch 0's read and swap add to 3 ms (the shadow anomaly call and the
	// gap between spans are not stages); batch 1 has a 4 ms update.
	if !slices.Equal(sums, []float64{3, 4}) {
		t.Fatalf("stage sums %v ms, want [3 4]", sums)
	}
	routerSelf, shard, remainder := requestBreakdown(spans)
	slices.Sort(shard)
	slices.Sort(remainder)
	near := func(got []float64, want ...float64) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	// Request 1: router 800 ns, its shard spans cover 200..700 (500 ns);
	// request 2 has no router, one 300 ns shard span.
	if !near(routerSelf, 300e-6) || !near(shard, 300e-6, 500e-6) || !near(remainder, 200e-6, 300e-6) {
		t.Fatalf("router self %v, shard %v, remainder %v (ms)", routerSelf, shard, remainder)
	}
	if requestID("user=3&rid=42&k=10") != 42 || requestID("user=3") != 0 {
		t.Fatal("request id tag not parsed")
	}
}
