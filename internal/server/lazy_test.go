package server

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestLazyGetComputesOnce races concurrent get and peek callers: compute
// runs exactly once, every get sees the same value, and a peek that
// reports present sees that value too.
func TestLazyGetComputesOnce(t *testing.T) {
	var calls atomic.Int32
	release := make(chan struct{})
	l := newLazy(func() []int {
		calls.Add(1)
		<-release
		return []int{1, 2, 3}
	})
	const n = 16
	got := make([][]int, n)
	peeked := make([][]int, n)
	var started, done sync.WaitGroup
	for i := range n {
		started.Add(1)
		done.Add(2)
		go func() {
			defer done.Done()
			started.Done()
			got[i] = l.get()
		}()
		go func() {
			defer done.Done()
			for range 100 {
				if v, ok := l.peek(); ok {
					peeked[i] = v
					return
				}
			}
		}()
	}
	started.Wait()
	close(release)
	done.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("compute ran %d times, want 1", c)
	}
	for i := range n {
		if len(got[i]) != 3 || &got[i][0] != &got[0][0] {
			t.Fatalf("get %d returned %v, not the one computed value %v", i, got[i], got[0])
		}
		if peeked[i] != nil && &peeked[i][0] != &got[0][0] {
			t.Fatalf("peek %d returned %v, not the computed value", i, peeked[i])
		}
	}
	if v, ok := l.peek(); !ok || &v[0] != &got[0][0] {
		t.Fatalf("peek after get = %v, %v", v, ok)
	}
}

// TestLazyPeekNeverForces pins that peek reports absent before any get
// and never runs compute; a nil holder (a disabled artifact) is absent.
func TestLazyPeekNeverForces(t *testing.T) {
	var calls atomic.Int32
	l := newLazy(func() int { calls.Add(1); return 7 })
	for range 3 {
		if v, ok := l.peek(); ok || v != 0 {
			t.Fatalf("peek before get = %v, %v; want absent", v, ok)
		}
	}
	if c := calls.Load(); c != 0 {
		t.Fatalf("peek ran compute %d times", c)
	}
	var disabled *lazy[int]
	if _, ok := disabled.peek(); ok {
		t.Fatal("nil holder peeks present")
	}
}

// TestLazyReady pins the eager path: ready(v) peeks present at once and
// get returns v without computing; a ready after the value exists
// changes nothing.
func TestLazyReady(t *testing.T) {
	var calls atomic.Int32
	l := newLazy(func() int { calls.Add(1); return 7 })
	l.ready(42)
	if v, ok := l.peek(); !ok || v != 42 {
		t.Fatalf("peek after ready = %v, %v; want 42, true", v, ok)
	}
	if v := l.get(); v != 42 {
		t.Fatalf("get after ready = %v, want 42", v)
	}
	if c := calls.Load(); c != 0 {
		t.Fatalf("get after ready ran compute %d times", c)
	}
	computed := newLazy(func() int { calls.Add(1); return 7 })
	computed.get()
	computed.ready(42)
	if v := computed.get(); v != 7 {
		t.Fatalf("ready after get replaced the value: %v", v)
	}
}
