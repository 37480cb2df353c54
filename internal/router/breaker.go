package router

import (
	"sync/atomic"
	"time"
)

// breaker is one replica's circuit breaker: consecutive-failure trip,
// cooldown, single half-open probe. All state is atomic — acquire sits
// on the proxy hot path and must stay lock- and allocation-free.
//
// States: closed (healthy, requests flow), open (tripped; requests are
// skipped until the cooldown elapses), half-open (exactly one probe
// request is in flight; everyone else keeps skipping). A successful
// response — any response at all that is not a retryable gateway status —
// closes the breaker; a failed probe reopens it for a fresh cooldown.
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
// half-open probe.
const DefaultBreakerCooldown = time.Second

// acquire reports whether an attempt may be sent to this replica now.
// While open it returns false until the cooldown elapses, then grants
// exactly one caller the half-open probe (CAS-arbitrated); while
// half-open every non-probe caller keeps skipping. probe reports that
// THIS caller holds the half-open probe: it then owes the breaker an
// outcome — onSuccess, or onFailure on every abandonment path — or the
// breaker wedges half-open and blacklists the replica forever.
func (b *breaker) acquire(now int64, cooldown int64) (ok, probe bool) {
	switch b.state.Load() {
	case bClosed:
		return true, false
	case bOpen:
		if now-b.openedAt.Load() < cooldown {
			return false, false
		}
		ok = b.state.CompareAndSwap(bOpen, bHalfOpen)
		return ok, ok
	default: // half-open: the probe is in flight
		return false, false
	}
}

// onSuccess records a healthy response, reporting whether it recovered a
// previously tripped breaker (the half-open probe succeeding).
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
