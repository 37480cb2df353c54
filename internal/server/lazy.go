package server

import (
	"sync"
	"sync/atomic"
)

// lazy holds one per-state artifact — the rank vector, the anomaly
// scores, the landmark selection, a landmark sketch — through the
// lifecycle they all share. Each computes on first use, keeping the work
// off the boot path; a swap's warm forces, after it publishes, the
// holders its predecessor wanted (Server.warm). get computes at most once
// and coalesces concurrent callers; peek reports the value only if it
// already exists, so a metrics scrape never forces work. The value is
// immutable once present.
type lazy[T any] struct {
	once    sync.Once
	done    atomic.Bool
	wanted  atomic.Bool // set by get; inherit carries it across a swap
	compute func() T
	v       T
}

// newLazy returns a holder that runs compute on the first get.
func newLazy[T any](compute func() T) *lazy[T] {
	return &lazy[T]{compute: compute}
}

// get returns the value, computing it on first use, which also marks the
// holder wanted (once, so hits never write).
func (l *lazy[T]) get() T {
	l.once.Do(func() {
		l.wanted.Store(true)
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

// inherit marks next wanted if prev was, computed or not, and appends
// next's get to demand: the swap rule that carries demand, and only that,
// to the state replacing prev. It is sticky, since the warm's get keeps
// next wanted. Nil holders (a disabled artifact) carry nothing.
func inherit[T any](demand []func(), prev, next *lazy[T]) []func() {
	if prev == nil || !prev.wanted.Load() {
		return demand
	}
	next.wanted.Store(true)
	return append(demand, func() { next.get() })
}
