package server

import (
	"fmt"
	"os"
	"time"

	"weboftrust"
	"weboftrust/internal/checkpoint"
)

// BootInfo reports how a serving stack came up, for operator logs.
type BootInfo struct {
	// Warm is true when a checkpoint was restored; false means a full
	// cold replay + derive.
	Warm bool
	// CheckpointPath and CheckpointOffset identify the restored
	// checkpoint (zero values when cold).
	CheckpointPath   string
	CheckpointOffset int64
	// TailedEvents is how many log records were replayed on top of the
	// restored checkpoint (cold boots replay everything; see Offset).
	TailedEvents int
	// Offset is the event-log offset the served model reflects.
	Offset int64
	// FallbackReason is set when a checkpoint directory was given but the
	// boot went cold anyway: no usable checkpoint, or a warm tail that
	// failed against the current log.
	FallbackReason string
}

// Open bootstraps a serving stack from an event log: it replays the
// whole log (tolerating a torn final record), derives the model, and
// returns a Server plus a Tailer positioned at the end of the intact
// prefix. Start the tailer with go tailer.Run(ctx).
func Open(path string, poll time.Duration, opts Options, derive ...weboftrust.Option) (*Server, *Tailer, error) {
	srv, tailer, _, err := OpenCheckpointedInto(nil, path, "", poll, opts, derive...)
	return srv, tailer, err
}

// OpenCheckpointedInto bootstraps a serving stack through checkpoint.Load:
// it restores the newest usable checkpoint in ckptDir and replays only
// the log suffix past it through the incremental pipeline, converting
// boot cost from O(whole history) to O(checkpoint load + tail). Any
// failure of the warm load (no usable checkpoint, a stale fingerprint, a
// tail that no longer matches the log) retries cold and says why in
// FallbackReason, so a bad checkpoint directory can delay a boot but never
// prevent one. An empty ckptDir boots cold.
//
// A non-nil into is a pending server (NewPending) the booted model is
// published into by its first Swap — the early-listen shape: the daemon
// binds its address and serves 503s/liveness first, boots, and the first
// Swap flips it live. A nil into creates the server. The returned Tailer
// is positioned at the end of the log's intact prefix.
func OpenCheckpointedInto(into *Server, logPath, ckptDir string, poll time.Duration, opts Options, derive ...weboftrust.Option) (*Server, *Tailer, *BootInfo, error) {
	if ckptDir != "" {
		// No writer can be mid-checkpoint at boot; clear crashed-write debris.
		_ = checkpoint.RemoveTemps(ckptDir)
	}
	var reason string
	l, err := checkpoint.Load(logPath, ckptDir, derive...)
	if err != nil && ckptDir != "" {
		reason = err.Error()
		l, err = checkpoint.Load(logPath, "", derive...)
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("server: %w", err)
	}
	// Publish by the first Swap into the pending server, or by
	// constructing one; both stamp the state version 1.
	srv := into
	if srv == nil {
		srv = New(l.Model, l.Offset, opts)
	} else {
		srv.Swap(l.Model, l.Offset)
	}
	if !l.Warm() {
		return srv, newTailer(srv, logPath, poll, l), &BootInfo{Offset: l.Offset, FallbackReason: reason}, nil
	}
	// Seed the durability surface from the restored file: /v1/stats and
	// /metrics report it immediately, and a Checkpointer's first
	// skip-idle check can recognise the on-disk checkpoint instead of
	// rewriting a byte-identical one.
	status := &CheckpointStatus{Path: l.Info.Path, Offset: l.Info.Offset}
	if st, err := os.Stat(l.Info.Path); err == nil {
		status.SizeBytes = st.Size()
		status.WrittenAt = st.ModTime()
	}
	srv.setCheckpointStatus(status)
	return srv, newTailer(srv, logPath, poll, l), &BootInfo{
		Warm:             true,
		CheckpointPath:   l.Info.Path,
		CheckpointOffset: l.Info.Offset,
		TailedEvents:     l.Replayed,
		Offset:           l.Offset,
	}, nil
}
