package checkpoint

import (
	"errors"
	"fmt"
	"os"

	"weboftrust"
	"weboftrust/internal/ratings"
	"weboftrust/internal/store"
)

// Loaded is the model Load built and where it stands against its log.
type Loaded struct {
	// Model reflects the log's intact prefix.
	Model *weboftrust.TrustModel
	// Builder holds exactly the events Model reflects, for a caller that
	// keeps ingesting. It is nil when Load replayed nothing on top of a
	// restored checkpoint.
	Builder *ratings.Builder
	// Offset is where the log's intact prefix ends; LogSize is the log's
	// size when Load opened it.
	Offset, LogSize int64
	// Replayed counts the records replayed: the whole prefix when cold,
	// the records past Info.Resume when warm.
	Replayed int
	// Torn reports an incomplete final record past Offset.
	Torn bool
	// Info locates the restored checkpoint; zero when cold.
	Info Info
}

// Warm reports whether a restored checkpoint seeded the load.
func (l *Loaded) Warm() bool { return l.Info.Path != "" }

// Load builds the model for the event log's intact prefix. It is the one
// path from log to model: the daemon's boot, WriteFromLog and Compact all
// go through it, and it is the only reader of Info.Resume. With dir
// empty it replays the prefix and derives cold. Otherwise it restores the
// newest usable checkpoint in dir (ErrNoCheckpoint when there is none)
// and folds in the records past Info.Resume with Update, so a warm load
// equals a cold one of the same history. A torn final record is not an
// error: Load stops before it and sets Torn, and each caller decides
// whether to refuse that.
func Load(logPath, dir string, opts ...weboftrust.Option) (*Loaded, error) {
	f, err := os.Open(logPath)
	if err != nil {
		return nil, fmt.Errorf("open log: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("open log: %w", err)
	}
	l := &Loaded{LogSize: st.Size()}
	var resume int64
	if dir != "" {
		if l.Model, l.Info, err = Restore(dir, opts...); err != nil {
			return nil, err
		}
		resume = l.Info.Resume(l.LogSize)
	}
	unusable := func(err error) (*Loaded, error) {
		if l.Warm() {
			err = fmt.Errorf("checkpoint %s unusable against log: %w", l.Info.Path, err)
		}
		return nil, err
	}

	events, offset, err := store.ReadLogFrom(f, resume)
	if errors.Is(err, store.ErrTruncated) {
		l.Torn = true
	} else if err != nil {
		return unusable(fmt.Errorf("read log: %w", err))
	}
	l.Offset, l.Replayed = offset, len(events)
	switch {
	case l.Warm() && len(events) == 0:
		return l, nil
	case l.Warm():
		l.Builder = ratings.NewBuilderFrom(l.Model.Dataset())
	default:
		l.Builder = ratings.NewBuilder()
	}
	if err := store.Replay(events, l.Builder); err != nil {
		return unusable(err)
	}
	if l.Warm() {
		l.Model, err = l.Model.Update(l.Builder.Snapshot())
	} else {
		l.Model, err = weboftrust.Derive(l.Builder.Snapshot(), opts...)
	}
	if err != nil {
		return unusable(err)
	}
	return l, nil
}
