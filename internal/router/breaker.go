package router

import (
	"sync/atomic"
	"time"
)

// breaker is one replica's circuit breaker: consecutive-failure trip,
// cooldown, single half-open probe. All state is atomic — acquire sits
// on the proxy hot path and must stay lock- and allocation-free.
//
// States: closed (healthy, requests flow), open (tripped; requests skip
// the replica), half-open (the cooldown elapsed and the router's own
// readiness probe of the replica is in flight; requests still skip it).
// A successful response — any response at all that is not a retryable
// gateway status — or a passed probe closes the breaker; a failed probe
// reopens it for a fresh cooldown. No client request ever waits on a
// tripped replica.
type breaker struct {
	state    atomic.Int32 // bClosed | bOpen | bHalfOpen
	consec   atomic.Int32 // consecutive failures while closed
	openedAt atomic.Int64 // unix nanos of the trip (valid while open)
}

const (
	bClosed int32 = iota
	bOpen
	bHalfOpen
)

// breakerThreshold trips a replica's breaker after this many
// consecutive failures.
const breakerThreshold = 5

// DefaultBreakerCooldown is how long a tripped replica rests before the
// router probes its readiness.
const DefaultBreakerCooldown = time.Second

// acquire reports whether an attempt may be sent to this replica now:
// only while the breaker is closed.
func (b *breaker) acquire() bool { return b.state.Load() == bClosed }

// claimProbe moves an open breaker whose cooldown has elapsed to
// half-open, reporting whether this caller won that move (CAS-arbitrated,
// so exactly one caller does). The winner owes the breaker one readiness
// probe, whose outcome closes or reopens it.
func (b *breaker) claimProbe(now, cooldown int64) bool {
	return b.state.Load() == bOpen && now-b.openedAt.Load() >= cooldown &&
		b.state.CompareAndSwap(bOpen, bHalfOpen)
}

// onSuccess records a healthy response or a passed probe, reporting
// whether it recovered a previously tripped breaker.
func (b *breaker) onSuccess() (recovered bool) {
	// Load-before-store keeps the steady-state happy path to two reads
	// and zero read-modify-writes on the shared breaker cache line.
	if b.consec.Load() != 0 {
		b.consec.Store(0)
	}
	if b.state.Load() == bClosed {
		return false
	}
	return b.state.Swap(bClosed) != bClosed
}

// onFailure records a failed attempt, reporting whether it tripped the
// breaker closed→open. A failed half-open probe reopens silently (the
// trip was already counted).
func (b *breaker) onFailure(now int64) (tripped bool) {
	if b.state.Load() == bHalfOpen {
		b.openedAt.Store(now)
		b.state.Store(bOpen)
		return false
	}
	if b.consec.Add(1) >= breakerThreshold {
		// Stamp before the CAS so a concurrent acquire never reads a
		// stale openedAt on a freshly opened breaker.
		b.openedAt.Store(now)
		return b.state.CompareAndSwap(bClosed, bOpen)
	}
	return false
}

// stateName labels the breaker for stats surfaces.
func (b *breaker) stateName() string {
	switch b.state.Load() {
	case bOpen:
		return "open"
	case bHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
