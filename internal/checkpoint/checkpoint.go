// Package checkpoint persists the derived trust model so a serving
// process can restart in milliseconds instead of replaying its whole
// history: a versioned, CRC-32C-checked binary bundle holding the
// dataset, the pipeline artifacts (Riggs results, expertise, affinity)
// and the event-log offset the model reflects, plus directory-level
// atomic-write/restore/prune/compact protocols built on it (see dir.go
// and compact.go, and DESIGN.md §8).
//
// Bundle layout (all integers varint-encoded unless noted):
//
//	magic "WOTCK001" (8 bytes)
//	format version (uvarint, currently 3)
//	config fingerprint (8 bytes little-endian; see core.Config.Fingerprint)
//	event-log offset the model reflects (uvarint)
//	event-log size observed at write time (uvarint, >= offset; how a
//	boot detects that the log was rewritten by compaction — see
//	Info.Resume)
//	dataset     byte length, then a ratings dataset image (the trusted
//	            bulk form — see ratings.AppendImage; integrity comes
//	            from this bundle's CRC, and decoding rebuilds the
//	            dataset's indexes without the validating Builder an
//	            event-log replay folds through, which is what makes
//	            restore-time O(bulk read) instead of O(map insert per
//	            record))
//	riggs       per category: review ids, qualities, rater ids,
//	            reputations, rating counts, iterations, converged flag
//	expertise   U·C float64 cells (8-byte little-endian bits, row-major)
//	affinity    U·C float64 cells, likewise
//	crc32c of everything after the magic (4 bytes little-endian)
//
// A bundle holds the complete model whatever shard wrote it, so it
// restores under any shard spec and any web policy. Read restores
// version 3 only: a version-1 or version-2 bundle fails with
// ErrBadVersion, and a boot replays the log cold.
//
// Floats are serialised as their exact IEEE-754 bits, and neither the
// derived-trust index (row sums, expert bitsets, packed expert lists and
// score columns) nor the web of trust is serialised: core.RehydrateArtifacts
// rebuilds the index from the decoded matrices, and the facade builds the
// web lazily on first use, both bitwise-deterministic at any worker
// count. A restored model therefore serves values bitwise-identical to
// the Derive it checkpoints — pinned by the round-trip property tests.
//
// Write builds the bundle in one slice and Read decodes it from one. Read
// checks the magic, the version and the trailing checksum before it
// parses any section, then decodes every section, the embedded dataset
// image included, through internal/wire's bounded reader: every count is
// bounded by the bytes remaining or by the decoded dataset's dimensions
// before it sizes an allocation, every id is range-checked, and bytes
// left over fail the read. Every value is copied out of the input, so
// the file's bytes are garbage once Read returns.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"weboftrust"
	"weboftrust/internal/core"
	"weboftrust/internal/mat"
	"weboftrust/internal/ratings"
	"weboftrust/internal/riggs"
	"weboftrust/internal/wire"
)

var (
	// ErrBadMagic reports a stream that is not a checkpoint.
	ErrBadMagic = errors.New("checkpoint: bad magic")
	// ErrBadVersion reports a checkpoint in a format version this reader
	// does not restore: any version but 3.
	ErrBadVersion = errors.New("checkpoint: unsupported format version")
	// ErrChecksum reports checkpoint corruption caught by the CRC.
	ErrChecksum = errors.New("checkpoint: checksum mismatch")
	// ErrCorrupt reports a structurally invalid checkpoint (including a
	// torn tail from a crash mid-write: unlike the event log, a partial
	// checkpoint is worthless, so truncation is not distinguished).
	ErrCorrupt = errors.New("checkpoint: corrupt data")
	// ErrStale reports a checkpoint whose config fingerprint does not
	// match the options the caller is serving with; restoring it would
	// serve values a fresh Derive would not produce.
	ErrStale = errors.New("checkpoint: config fingerprint mismatch")
)

var magic = [8]byte{'W', 'O', 'T', 'C', 'K', '0', '0', '1'}

// formatVersion is bumped on any incompatible layout change. Version 3
// is version 1's layout again: version 2 added a shard spec, and for
// sharded bundles a compact affinity section and a serialised web graph,
// which bundles no longer need.
const formatVersion = 3

// checksumLen is the size of the trailing CRC-32C.
const checksumLen = 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Info locates a checkpoint against its event log.
type Info struct {
	// Offset is the event-log offset the model reflects — where tailing
	// resumes in the log the checkpoint was written against.
	Offset int64
	// LogSize is the log's size observed at write time (at least
	// Offset). A current log SMALLER than this proves the log was
	// rewritten since — compaction dropped the folded prefix — which is
	// what Resume keys on.
	LogSize int64
	// Path is the file the checkpoint was read from ("" for stream
	// reads).
	Path string
}

// Resume maps the checkpoint's recorded offset onto the log as it
// exists now. Normally the recorded offset is a position within the log
// and tailing resumes there; the log only ever grows, so its current
// size is at least the recorded LogSize. A current log SMALLER than the
// recorded size means the log was compacted at exactly this checkpoint
// (Compact swaps the folded prefix out from under the offset before it
// writes the rebased replacement; a crash in that window leaves this
// state): the log's remaining bytes are precisely the records after the
// checkpoint, so tailing resumes at 0. The rule is unambiguous because
// Compact deletes every other checkpoint before swapping the log — the
// only checkpoint that can observe a shrunken log is the one written at
// the compaction point itself, whose recorded size strictly exceeds the
// remainder it leaves behind (it folded a non-empty prefix).
func (in Info) Resume(currentLogSize int64) int64 {
	if currentLogSize < in.LogSize {
		return 0
	}
	return in.Offset
}

// Write serialises the model, the event-log offset it reflects, and the
// log size observed at that moment (pass offset itself when the size is
// unknown: the log held at least the bytes the model consumed, which is
// all Info.Resume needs from non-compaction checkpoints).
func Write(w io.Writer, m *weboftrust.TrustModel, offset, logSize int64) error {
	b, err := encode(m, offset, logSize)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// encode builds the whole bundle in one slice.
func encode(m *weboftrust.TrustModel, offset, logSize int64) ([]byte, error) {
	if m == nil {
		return nil, fmt.Errorf("checkpoint: nil model")
	}
	if offset < 0 {
		return nil, fmt.Errorf("checkpoint: negative offset %d", offset)
	}
	if logSize < offset {
		return nil, fmt.Errorf("checkpoint: log size %d below offset %d", logSize, offset)
	}
	d, art := m.Dataset(), m.Artifacts()
	numU, numC := d.NumUsers(), d.NumCategories()
	for _, x := range []*mat.Dense{art.Expertise, art.Affinity} {
		if x == nil || x.Rows() != numU || x.Cols() != numC {
			return nil, fmt.Errorf("checkpoint: matrix shape mismatch (want %dx%d)", numU, numC)
		}
	}
	if len(art.RiggsResults) != numC {
		return nil, fmt.Errorf("checkpoint: %d riggs results for %d categories", len(art.RiggsResults), numC)
	}
	// The embedded dataset image is length-prefixed so the decoder can
	// bound the section before decoding it.
	img := ratings.AppendImage(nil, d)
	// size bounds the bundle: the header and checksum, the image, E and
	// A, and per category its ids and counts at up to 10 varint bytes
	// each beside their 8-byte floats.
	size := 64 + len(img) + 2*8*numU*numC
	for c, cr := range art.RiggsResults {
		if cr == nil || len(cr.Quality) != len(cr.Reviews) ||
			len(cr.RaterRep) != len(cr.Raters) || len(cr.RaterCount) != len(cr.Raters) {
			return nil, fmt.Errorf("checkpoint: malformed riggs result %d", c)
		}
		size += 21 + 18*len(cr.Reviews) + 28*len(cr.Raters)
	}

	b := make([]byte, 0, size)
	b = append(b, magic[:]...)
	b = binary.AppendUvarint(b, formatVersion)
	b = binary.LittleEndian.AppendUint64(b, m.Fingerprint())
	b = binary.AppendUvarint(b, uint64(offset))
	b = binary.AppendUvarint(b, uint64(logSize))
	b = binary.AppendUvarint(b, uint64(len(img)))
	b = append(b, img...)
	for _, cr := range art.RiggsResults {
		b = binary.AppendUvarint(b, uint64(len(cr.Reviews)))
		for _, r := range cr.Reviews {
			b = binary.AppendUvarint(b, uint64(r))
		}
		b = appendFloats(b, cr.Quality)
		b = binary.AppendUvarint(b, uint64(len(cr.Raters)))
		for _, u := range cr.Raters {
			b = binary.AppendUvarint(b, uint64(u))
		}
		b = appendFloats(b, cr.RaterRep)
		for _, n := range cr.RaterCount {
			b = binary.AppendUvarint(b, uint64(n))
		}
		b = binary.AppendUvarint(b, uint64(cr.Iterations))
		converged := byte(0)
		if cr.Converged {
			converged = 1
		}
		b = append(b, converged)
	}
	for _, x := range []*mat.Dense{art.Expertise, art.Affinity} {
		for i := 0; i < numU; i++ {
			b = appendFloats(b, x.Row(i))
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[len(magic):], castagnoli)), nil
}

func appendFloats(b []byte, fs []float64) []byte {
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// Read restores a model from r. opts must be the derive options the
// caller serves with: the recorded config fingerprint is checked against
// them (ErrStale on mismatch), and the derived-trust index is rebuilt
// under their worker setting. The returned offset is the event-log
// position the model reflects — the place to resume tailing from.
func Read(r io.Reader, opts ...weboftrust.Option) (*weboftrust.TrustModel, Info, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, Info{}, fmt.Errorf("checkpoint: %w", err)
	}
	return decode(data, opts...)
}

// decode restores a model from a whole bundle; see Read.
func decode(data []byte, opts ...weboftrust.Option) (*weboftrust.TrustModel, Info, error) {
	servingFingerprint, err := weboftrust.Fingerprint(opts...)
	if err != nil {
		return nil, Info{}, err
	}
	if !bytes.HasPrefix(data, magic[:]) {
		return nil, Info{}, ErrBadMagic
	}
	body := data[len(magic):]
	if len(body) < checksumLen {
		return nil, Info{}, fmt.Errorf("%w: missing checksum", ErrCorrupt)
	}
	body, sum := body[:len(body)-checksumLen], binary.LittleEndian.Uint32(body[len(body)-checksumLen:])
	r := wire.NewReader(body, ErrCorrupt)
	if version := r.Uvarint(); r.Err() != nil {
		return nil, Info{}, r.Err()
	} else if version != formatVersion {
		return nil, Info{}, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, Info{}, ErrChecksum
	}

	fingerprint := r.Fixed64()
	offset, logSize := r.Uvarint(), r.Uvarint()
	if r.Err() == nil && (offset > math.MaxInt64 || logSize > math.MaxInt64 || logSize < offset) {
		return nil, Info{}, fmt.Errorf("%w: offset %d / log size %d", ErrCorrupt, offset, logSize)
	}
	img := r.Prefixed("dataset section")
	if r.Err() != nil {
		return nil, Info{}, r.Err()
	}
	d, err := ratings.DatasetFromImage(img)
	if err != nil {
		return nil, Info{}, fmt.Errorf("%w: embedded dataset: %v", ErrCorrupt, err)
	}

	// Every count below is bounded by the decoded dataset's dimensions
	// before any slice is sized by it.
	numU, numC, numR := d.NumUsers(), d.NumCategories(), d.NumReviews()
	results := make([]*riggs.CategoryResult, numC)
	for c := range results {
		cr := &riggs.CategoryResult{Category: ratings.CategoryID(c)}
		cr.Reviews = make([]ratings.ReviewID, r.Bounded("reviews", numR))
		for i := range cr.Reviews {
			cr.Reviews[i] = ratings.ReviewID(r.ID("review", numR))
		}
		cr.Quality = r.Floats("qualities", len(cr.Reviews))
		cr.Raters = make([]ratings.UserID, r.Bounded("raters", numU))
		for i := range cr.Raters {
			cr.Raters[i] = ratings.UserID(r.ID("rater", numU))
		}
		cr.RaterRep = r.Floats("reputations", len(cr.Raters))
		cr.RaterCount = make([]int, len(cr.Raters))
		for i := range cr.RaterCount {
			cr.RaterCount[i] = r.Bounded("rater count", numR)
		}
		cr.Iterations = r.Bounded("iterations", 1<<30)
		converged := r.Byte()
		if converged > 1 {
			r.Fail("converged flag %d", converged)
		}
		cr.Converged = converged == 1
		if r.Err() != nil {
			return nil, Info{}, r.Err()
		}
		results[c] = cr
	}

	e := matrix(r, "expertise", numU, numC)
	a := matrix(r, "affinity", numU, numC)
	if r.Err() == nil && r.Len() != 0 {
		r.Fail("%d trailing bytes", r.Len())
	}
	if r.Err() != nil {
		return nil, Info{}, r.Err()
	}

	// Integrity is established; only reject on staleness once the
	// sections themselves decoded, so ErrStale reliably means "valid
	// checkpoint, different configuration".
	if fingerprint != servingFingerprint {
		return nil, Info{}, fmt.Errorf("%w: checkpoint %#x, serving config %#x",
			ErrStale, fingerprint, servingFingerprint)
	}

	// A nil Trust asks Restore to rebuild the derived-trust index from
	// the decoded matrices (core.RehydrateArtifacts, under the options'
	// worker setting) — the one place that rehydration logic lives.
	art := &core.Artifacts{RiggsResults: results, Expertise: e, Affinity: a}
	model, err := weboftrust.Restore(d, art, opts...)
	if err != nil {
		return nil, Info{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return model, Info{Offset: int64(offset), LogSize: int64(logSize)}, nil
}

// matrix reads a rows×cols matrix of exact float64 bits, row-major.
func matrix(r *wire.Reader, what string, rows, cols int) *mat.Dense {
	data := r.Floats(what, rows*cols)
	if r.Err() != nil {
		return nil
	}
	m, err := mat.NewDenseData(rows, cols, data)
	if err != nil {
		r.Fail("%s: %v", what, err)
	}
	return m
}
