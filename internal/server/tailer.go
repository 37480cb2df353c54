package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"weboftrust/internal/checkpoint"
	"weboftrust/internal/ratings"
	"weboftrust/internal/store"
)

// Tailer keeps a Server fresh against an append-only event log. It owns a
// long-lived ratings.Builder holding exactly the entities the served model
// reflects; each poll replays the records past its checkpoint into the
// builder, snapshots the grown dataset, rebuilds artifacts incrementally
// with TrustModel.Update (only categories touched by the new events are
// re-solved, the rest of the model is reused, and the recompute fans out
// across the Workers the model was derived with — see
// weboftrust.WithWorkers), and swaps the result into the server. Each
// Update gives every worker its own Riggs iteration scratch for that call,
// so no scratch buffer outlives a tick. A torn
// final record — a writer crashed or is still mid-append — is not an
// error: the tailer ingests the intact prefix and retries the tail on the
// next poll.
type Tailer struct {
	srv     *Server
	path    string
	poll    time.Duration
	builder *ratings.Builder
	// base lazily materialises the builder on the first poll that finds
	// events: a warm boot whose log tail was empty hands the tailer just
	// the restored dataset, deferring the dedup-map reconstruction
	// (NewBuilderFrom) off the time-to-serving path and onto the first
	// ingest tick. Exactly one of builder/base is set at construction.
	base   *ratings.Dataset
	offset int64
	// failed poisons the tailer once the builder may have diverged from
	// the offset checkpoint (a partial replay or failed update): retrying
	// would re-apply events to the mutated builder and silently corrupt
	// the next model. The server keeps serving its last good state.
	failed error
}

// DefaultPoll is the tail polling interval when none is given.
const DefaultPoll = 500 * time.Millisecond

// maxTailBackoff caps the exponential backoff between retries of a
// transiently failing poll.
const maxTailBackoff = 30 * time.Second

// TransientPollError marks a poll failure that did NOT touch the
// builder — the log was momentarily unreadable (rotated away, a stalled
// mount, a permission flap) but no state diverged, so retrying is safe
// and Run does exactly that with capped exponential backoff instead of
// killing ingest. Contrast the poisoning errors (replay or update
// failures after the builder mutated), which stay fatal.
type TransientPollError struct{ Err error }

func (e *TransientPollError) Error() string {
	return "server: transient poll failure: " + e.Err.Error()
}
func (e *TransientPollError) Unwrap() error { return e.Err }

// newTailer positions a tailer at the end of the prefix l loaded, taking
// ownership of l.Builder. When Load replayed nothing on top of a restored
// checkpoint there is no builder: the tailer keeps the restored dataset
// and builds one from it on the first poll that finds events, keeping
// the dedup-map reconstruction off the time-to-serving path.
func newTailer(srv *Server, path string, poll time.Duration, l *checkpoint.Loaded) *Tailer {
	if poll <= 0 {
		poll = DefaultPoll
	}
	t := &Tailer{srv: srv, path: path, poll: poll, builder: l.Builder, offset: l.Offset}
	if t.builder == nil {
		t.base = l.Model.Dataset()
	}
	return t
}

// Offset returns the event-log offset of the last ingested record.
func (t *Tailer) Offset() int64 { return t.offset }

// Poll ingests every complete record currently past the checkpoint and, if
// there were any, swaps an updated model into the server. It returns the
// number of events ingested once the new state is published; its warm
// runs after (Server.Swap, Server.WaitWarm). Safe to call from one
// goroutine (Run's, or a test's — not both). After an ingest error (an
// invalid event in the log, a failed update) the tailer is poisoned: every
// later Poll returns the same error rather than re-applying events to the
// half-mutated builder.
func (t *Tailer) Poll() (int, error) {
	if t.failed != nil {
		return 0, t.failed
	}
	f, err := os.Open(t.path)
	if err != nil {
		// Nothing was mutated: the log being momentarily unopenable
		// (rotation, a flapping mount) must not kill ingest.
		t.srv.metrics.tailTransient.Add(1)
		return 0, &TransientPollError{Err: fmt.Errorf("open log: %w", err)}
	}
	defer f.Close()
	events, newOffset, err := store.ReadLogFrom(f, t.offset)
	if err != nil {
		if !errors.Is(err, store.ErrTruncated) {
			// Also pre-mutation: a read error (IO fault, a half-written
			// region that is not the torn-tail shape) leaves the builder
			// exactly at its checkpoint, so the retry is safe. A genuinely
			// corrupt log keeps failing here — visible as a climbing
			// trustd_tail_transient_errors_total while the server serves
			// its last good state, which is the honest degraded behavior.
			t.srv.metrics.tailTransient.Add(1)
			return 0, &TransientPollError{Err: fmt.Errorf("tail log: %w", err)}
		}
		// Torn tail: ingest the intact prefix, re-read the rest later.
		t.srv.metrics.truncatedReads.Add(1)
	}
	if len(events) == 0 {
		return 0, nil
	}
	if t.builder == nil {
		t.builder = ratings.NewBuilderFrom(t.base)
		t.base = nil
	}
	// From here on the builder is mutated; any failure poisons the tailer
	// so a retry cannot double-apply the prefix Replay already folded in.
	if err := store.Replay(events, t.builder); err != nil {
		t.failed = fmt.Errorf("server: replay at offset %d: %w", t.offset, err)
		return 0, t.failed
	}
	newD := t.builder.Snapshot()
	cur, _, _ := t.srv.Current()
	model, err := cur.Update(newD)
	if err != nil {
		t.failed = fmt.Errorf("server: incremental update: %w", err)
		return 0, t.failed
	}
	t.srv.Swap(model, newOffset)
	t.offset = newOffset
	t.srv.metrics.eventsIngested.Add(int64(len(events)))
	return len(events), nil
}

// Run polls until ctx is cancelled. Transient poll failures (the log
// momentarily unreadable, nothing mutated) are retried with capped
// exponential backoff — poll interval doubling per consecutive failure
// up to maxTailBackoff — so a log rotation or IO blip costs delayed
// freshness, not a dead ingest loop. A poisoning failure (replay or
// update error after the builder mutated) stops the loop and returns
// the error — the server keeps serving its last good model, and the
// operator decides whether to restart.
func (t *Tailer) Run(ctx context.Context) error {
	delay := t.poll
	timer := time.NewTimer(delay)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
		}
		_, err := t.Poll()
		var transient *TransientPollError
		switch {
		case err == nil:
			delay = t.poll
		case errors.As(err, &transient):
			delay *= 2
			if cap := max(maxTailBackoff, t.poll); delay > cap {
				delay = cap
			}
		default:
			return err
		}
		timer.Reset(delay)
	}
}
