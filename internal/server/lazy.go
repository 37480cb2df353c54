package server

import (
	"sync"
	"sync/atomic"
)

// lazy holds one per-state artifact — the rank vector, the anomaly
// scores, the landmark selection, a landmark sketch — through the
// lifecycle they all share. Each computes on first use, keeping the work
// off the boot path; a parent-matched swap installs an eagerly refreshed
// anomaly vector or landmark sketch with ready before the state is
// published. get computes at most once and coalesces concurrent callers;
// peek reports the value only if it already exists, so a metrics scrape
// never forces work. The value is immutable once present.
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
	l.once.Do(func() { l.set(l.compute()) })
	return l.v
}

// ready installs v without running compute — the eager swap path. It has
// no effect once the value exists.
func (l *lazy[T]) ready(v T) {
	l.once.Do(func() { l.set(v) })
}

func (l *lazy[T]) set(v T) {
	l.v = v
	l.compute = nil
	l.done.Store(true)
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
