package server

import (
	"sync"
	"sync/atomic"
)

// lazy holds one per-state artifact — the rank vector, the anomaly
// scores, the landmark selection, a landmark sketch — through the
// lifecycle they all share. Each computes on first use, keeping the work
// off the boot path; a swap forces, before publishing, the holders its
// predecessor had forced (Server.newState). get computes at most once
// and coalesces concurrent callers; peek reports the value only if it
// already exists, so a metrics scrape never forces work. The value is
// immutable once present.
type lazy[T any] struct {
	once    sync.Once
	done    atomic.Bool
	compute func() T
	v       T
}

// newLazy returns a holder that runs compute on the first get.
func newLazy[T any](compute func() T) *lazy[T] {
	return &lazy[T]{compute: compute}
}

// get returns the value, computing it on first use.
func (l *lazy[T]) get() T {
	l.once.Do(func() {
		l.v = l.compute()
		l.compute = nil
		l.done.Store(true)
	})
	return l.v
}

// peek returns the value only if it already exists; it never computes.
// A nil holder (a disabled artifact) reports absent.
func (l *lazy[T]) peek() (T, bool) {
	if l == nil || !l.done.Load() {
		var zero T
		return zero, false
	}
	return l.v, true
}

// warm forces next through get if prev's value exists: the swap rule
// that carries a predecessor's forced artifacts, and only those, over to
// the state replacing it. The rule is sticky: next's value now exists
// too, so the swap after it warms the artifact again, queried or not.
func warm[T any](prev, next *lazy[T]) {
	if _, ok := prev.peek(); ok {
		next.get()
	}
}
