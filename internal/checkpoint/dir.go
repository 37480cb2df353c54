package checkpoint

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"weboftrust"
)

// ErrNoCheckpoint reports a directory holding no usable checkpoint (none
// at all, or only corrupt/torn/stale ones). Boot paths treat it as "go
// cold": replay the log and run a full Derive.
var ErrNoCheckpoint = errors.New("checkpoint: no usable checkpoint")

// Checkpoint files are named ckpt-<seq>.wck with a zero-padded, strictly
// increasing sequence number. Ordering is by sequence, NOT by the log
// offset inside the file: compaction rewrites the log and rebases offsets,
// so the offset of an older checkpoint may numerically exceed a newer
// one's while describing a stale log epoch. The sequence number is
// assigned at write time and always increases, so descending-sequence is
// always newest-model-first.
const (
	filePrefix = "ckpt-"
	fileSuffix = ".wck"
	tempSuffix = ".tmp"
	seqDigits  = 16
)

// fileName returns the checkpoint filename for a sequence number.
func fileName(seq uint64) string {
	return fmt.Sprintf("%s%0*d%s", filePrefix, seqDigits, seq, fileSuffix)
}

// parseSeq extracts the sequence number from a checkpoint filename, or
// false if the name is not a (final, non-temporary) checkpoint file.
func parseSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, filePrefix), fileSuffix)
	if digits == "" {
		return 0, false
	}
	seq, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// candidate is one checkpoint file found in a directory.
type candidate struct {
	seq  uint64
	path string
}

// scan lists a directory's checkpoint files newest-first (descending
// sequence). A missing directory scans as empty. Temp-file leftovers from
// crashed writes are never candidates (they fail the name filter).
func scan(dir string) ([]candidate, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: scan %s: %w", dir, err)
	}
	var out []candidate
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeq(e.Name()); ok {
			out = append(out, candidate{seq: seq, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq > out[j].seq })
	return out, nil
}

// nextSeq returns one past the highest sequence number present in dir.
func nextSeq(dir string) (uint64, error) {
	cands, err := scan(dir)
	if err != nil {
		return 0, err
	}
	if len(cands) == 0 {
		return 1, nil
	}
	return cands[0].seq + 1, nil
}

// WriteDir atomically adds a checkpoint of the model to dir and returns
// its path. offset and logSize locate the model against its event log
// (see Write; pass offset as logSize when the size is unknown). The
// bundle goes to its final sequence-numbered name through
// writeFileAtomic, so a crash at any point leaves either no new
// checkpoint or a complete one, never a torn file under a final name.
// Torn temp files from crashed writers are ignored by Restore and
// cleaned up by RemoveTemps.
func WriteDir(dir string, m *weboftrust.TrustModel, offset, logSize int64) (string, error) {
	data, err := encode(m, offset, logSize)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	seq, err := nextSeq(dir)
	if err != nil {
		return "", err
	}
	final := filepath.Join(dir, fileName(seq))
	if err := writeFileAtomic(final, data); err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	return final, nil
}

// writeFileAtomic replaces path's contents with data: it writes a temp
// file beside path, fsyncs and closes it, renames it over path, and
// fsyncs the directory, so a crash leaves either the old contents or the
// new, never a torn file under path. A crash can leave the temp file.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + tempSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Errors are ignored: some filesystems refuse directory fsync, and the
// rename itself already happened.
func syncDir(dir string) {
	if df, err := os.Open(dir); err == nil {
		df.Sync()
		df.Close()
	}
}

// ReadFile restores a model from one checkpoint file; see Read.
func ReadFile(path string, opts ...weboftrust.Option) (*weboftrust.TrustModel, Info, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Info{}, fmt.Errorf("checkpoint: %w", err)
	}
	m, info, err := decode(data, opts...)
	if err != nil {
		return nil, Info{}, err
	}
	info.Path = path
	return m, info, nil
}

// Restore loads the newest usable checkpoint in dir: candidates are tried
// in descending sequence order, and one that fails to decode (torn,
// corrupt, wrong version) or carries a different config fingerprint is
// skipped in favour of the next-newest — boot prefers serving a slightly
// older valid model over refusing to start. It returns the model and its
// Info (offset, recorded log size, winning path); ErrNoCheckpoint
// (wrapping the per-file failures) when nothing in dir is usable.
func Restore(dir string, opts ...weboftrust.Option) (*weboftrust.TrustModel, Info, error) {
	cands, err := scan(dir)
	if err != nil {
		return nil, Info{}, err
	}
	var failures []error
	for _, c := range cands {
		m, info, err := ReadFile(c.path, opts...)
		if err != nil {
			failures = append(failures, fmt.Errorf("%s: %w", filepath.Base(c.path), err))
			continue
		}
		return m, info, nil
	}
	if len(failures) > 0 {
		return nil, Info{}, fmt.Errorf("%w: %w", ErrNoCheckpoint, errors.Join(failures...))
	}
	return nil, Info{}, ErrNoCheckpoint
}

// Prune deletes all but the newest keep checkpoints in dir (keep < 1 is
// treated as 1). It never touches temp files; pair with RemoveTemps.
func Prune(dir string, keep int) error {
	if keep < 1 {
		keep = 1
	}
	cands, err := scan(dir)
	if err != nil {
		return err
	}
	var errs []error
	for _, c := range cands[min(keep, len(cands)):] {
		if err := os.Remove(c.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// RemoveTemps deletes temp-file leftovers from crashed checkpoint writes.
// Call it at boot, where no writer can be mid-flight.
func RemoveTemps(dir string) error {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	var errs []error
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), fileSuffix+tempSuffix) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !errors.Is(err, fs.ErrNotExist) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
