package checkpoint

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"weboftrust"
	"weboftrust/internal/store"
)

// CompactResult reports what Compact did.
type CompactResult struct {
	// Path is the final (offset-rebased) checkpoint holding the folded
	// prefix.
	Path string
	// FoldedEvents is how many log records were folded into the
	// checkpoint beyond what a restored checkpoint already carried.
	FoldedEvents int
	// FoldedBytes is the length of the log prefix removed from the log.
	FoldedBytes int64
	// RemainderBytes is what the log holds afterwards: 0 after a clean
	// compaction, or the torn final record preserved by -allow-truncated.
	RemainderBytes int64
	// Warm reports whether an existing checkpoint seeded the fold (only
	// the log suffix past it was replayed).
	Warm bool
}

// compactFault, when non-nil, can abort Compact after a named stage —
// the crash-consistency tests use it to materialise every intermediate
// on-disk state and prove each one boots to the same model.
var compactFault func(stage string) error

func faultAt(stage string) error {
	if compactFault != nil {
		return compactFault(stage)
	}
	return nil
}

// Compact folds the event log's complete prefix into a checkpoint in dir
// and removes that prefix from the log, bounding both boot time and log
// growth. It is an offline operation: no writer may be appending and no
// daemon tailing while it runs.
//
// The protocol is ordered so that an interruption at any point leaves a
// state that boots to the same model (see DESIGN.md §8):
//
//  1. Build the model for the log's complete prefix with Load — warm
//     from the newest usable checkpoint when dir holds one, else cold.
//  2. Write a checkpoint at the prefix-end offset and read it back to
//     verify it, so the log's information provably exists twice before
//     anything is deleted.
//  3. Delete every other checkpoint (they become ambiguous once the log
//     is rewritten) and stale temp files.
//  4. Atomically replace the log with its own suffix past the folded
//     prefix (usually empty; the torn tail survives under
//     allowTruncated).
//  5. Write the rebased replacement checkpoint (same model, offset 0).
//     A crash between 4 and 5 is covered by the Info.Resume rule. The
//     step-2 checkpoint is deliberately KEPT: after compaction it holds
//     the only other copy of the folded history (the log no longer has
//     it), it remains boot-safe under Info.Resume (its recorded log
//     size exceeds anything the rewritten log can shrink to until new
//     checkpoints supersede it), and a daemon's normal keep-N pruning
//     retires it once fresher checkpoints exist.
//
// A torn final record fails the whole compaction unless allowTruncated is
// set, in which case the intact prefix is folded and the torn bytes stay
// in the log for the writer to finish.
func Compact(logPath, dir string, allowTruncated bool, opts ...weboftrust.Option) (*CompactResult, error) {
	f, err := os.Open(logPath)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: compact: %w", err)
	}
	defer f.Close()

	// Stage 1: model for the complete prefix, warm when a checkpoint
	// already covers part of it.
	l, err := loadOffline(logPath, dir, allowTruncated, opts)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: compact: %w", err)
	}
	if err := faultAt("fold"); err != nil {
		return nil, err
	}

	// Stage 2: the prefix now exists in checkpoint form; verify before
	// deleting anything.
	// The recorded log size is the true pre-swap size: it strictly
	// exceeds whatever remainder the swap leaves behind whenever a
	// non-empty prefix is folded, which is exactly what Info.Resume
	// needs to recognise the crash window between stages 4 and 5.
	foldPath, err := WriteDir(dir, l.Model, l.Offset, l.LogSize)
	if err != nil {
		return nil, err
	}
	if _, _, err := ReadFile(foldPath, opts...); err != nil {
		return nil, fmt.Errorf("checkpoint: compact: verify %s: %w", foldPath, err)
	}
	if err := faultAt("checkpoint"); err != nil {
		return nil, err
	}

	// Stage 3: older checkpoints would be ambiguous against the rewritten
	// log; remove them while the log still matches their offsets.
	if err := Prune(dir, 1); err != nil {
		return nil, err
	}
	if err := RemoveTemps(dir); err != nil {
		return nil, err
	}
	if err := faultAt("prune"); err != nil {
		return nil, err
	}

	// Stage 4: swap the log for its suffix past the fold.
	if _, err := f.Seek(l.Offset, io.SeekStart); err != nil {
		return nil, fmt.Errorf("checkpoint: compact: %w", err)
	}
	remainder, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: compact: read remainder: %w", err)
	}
	if err := replaceFile(logPath, remainder); err != nil {
		return nil, err
	}
	if err := faultAt("swap"); err != nil {
		return nil, err
	}

	// Stage 5: rebase — same model, offset 0 against the rewritten log.
	finalPath, err := WriteDir(dir, l.Model, 0, int64(len(remainder)))
	if err != nil {
		return nil, err
	}
	if _, _, err := ReadFile(finalPath, opts...); err != nil {
		return nil, fmt.Errorf("checkpoint: compact: verify %s: %w", finalPath, err)
	}

	return &CompactResult{
		Path:           finalPath,
		FoldedEvents:   l.Replayed,
		FoldedBytes:    l.Offset,
		RemainderBytes: int64(len(remainder)),
		Warm:           l.Warm(),
	}, nil
}

// loadOffline is Load for the offline tools: cold only when dir holds
// no usable checkpoint, and a torn final record refused unless
// allowTruncated.
func loadOffline(logPath, dir string, allowTruncated bool, opts []weboftrust.Option) (*Loaded, error) {
	l, err := Load(logPath, dir, opts...)
	if errors.Is(err, ErrNoCheckpoint) {
		l, err = Load(logPath, "", opts...)
	}
	if err == nil && l.Torn && !allowTruncated {
		err = fmt.Errorf("%w (re-run with truncation allowed to fold the intact prefix)", &store.TruncatedError{Offset: l.Offset})
	}
	return l, err
}

// WriteResult reports what WriteFromLog did.
type WriteResult struct {
	// Path is the checkpoint written.
	Path string
	// Offset is the event-log offset it reflects (the end of the log's
	// intact prefix).
	Offset int64
	// TailedEvents is how many records were replayed beyond what a
	// restored checkpoint already carried.
	TailedEvents int
	// Warm reports whether an existing checkpoint seeded the build.
	Warm bool
}

// WriteFromLog folds the event log's complete prefix into a new
// checkpoint in dir without touching the log or the other checkpoints —
// the offline warm-start builder behind `trustctl checkpoint`. Like
// Compact it is warm when dir already holds a usable checkpoint: only the
// log suffix past it is replayed.
func WriteFromLog(logPath, dir string, allowTruncated bool, opts ...weboftrust.Option) (*WriteResult, error) {
	l, err := loadOffline(logPath, dir, allowTruncated, opts)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	path, err := WriteDir(dir, l.Model, l.Offset, l.LogSize)
	if err != nil {
		return nil, err
	}
	return &WriteResult{Path: path, Offset: l.Offset, TailedEvents: l.Replayed, Warm: l.Warm()}, nil
}

// replaceFile atomically replaces path's contents via a same-directory
// temp file, fsync and rename.
func replaceFile(path string, contents []byte) error {
	tmp := path + ".compact.tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: compact: %w", err)
	}
	if _, err := f.Write(contents); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: compact: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: compact: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: compact: %w", err)
	}
	syncDir(filepath.Dir(path))
	return nil
}
