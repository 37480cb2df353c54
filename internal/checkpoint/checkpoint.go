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
// restores under any shard spec and any web policy. Read also accepts
// version 1 (this layout) and version 2 bundles whose recorded shard spec
// is 0/1 (this layout with a shard index and count after the
// fingerprint). A sharded version-2 bundle held only its shard's rows and
// fails with ErrBadVersion; a boot then replays the log cold.
//
// Floats are serialised as their exact IEEE-754 bits, and neither the
// derived-trust index (row sums, expert bitsets, packed expert lists and
// score columns) nor the web of trust is serialised: core.RehydrateArtifacts
// rebuilds the index from the decoded matrices, and the facade builds the
// web lazily on first use, both bitwise-deterministic at any worker
// count. A restored model therefore serves values bitwise-identical to
// the Derive it checkpoints — pinned by the round-trip property tests.
//
// The decoder is hardened against corrupt or adversarial input: bulk
// sections are read through a chunk-growing buffer bounded by the bytes
// actually present, the embedded image applies the same
// remaining-bytes bound to every entity count, every later count is
// validated against the dataset's (now-decoded) dimensions before any
// allocation, and the trailing checksum rejects any surviving bit-rot.
package checkpoint

import (
	"bufio"
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
)

var (
	// ErrBadMagic reports a stream that is not a checkpoint.
	ErrBadMagic = errors.New("checkpoint: bad magic")
	// ErrBadVersion reports a checkpoint in a format version this reader
	// does not restore: an unknown version, or a sharded version-2 bundle.
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
// which bundles no longer need (see the package comment for what Read
// still accepts).
const formatVersion = 3

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxDatasetBytes caps the embedded dataset image's declared length. The
// image is read through a chunk-growing buffer regardless, so a forged
// length under the cap still cannot allocate more than the bytes actually
// present — this bound just fails obvious garbage fast.
const maxDatasetBytes = 1 << 31

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
	if m == nil {
		return fmt.Errorf("checkpoint: nil model")
	}
	if offset < 0 {
		return fmt.Errorf("checkpoint: negative offset %d", offset)
	}
	if logSize < offset {
		return fmt.Errorf("checkpoint: log size %d below offset %d", logSize, offset)
	}
	d, art := m.Dataset(), m.Artifacts()

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	crc := crc32.New(castagnoli)
	enc := &encoder{w: io.MultiWriter(bw, crc)}

	enc.uvarint(formatVersion)
	enc.fixed64(m.Fingerprint())
	enc.uvarint(uint64(offset))
	enc.uvarint(uint64(logSize))

	// Embedded dataset image, length-prefixed so the decoder can bound
	// the section before decoding it.
	img := ratings.AppendImage(nil, d)
	enc.uvarint(uint64(len(img)))
	enc.bytes(img)

	if len(art.RiggsResults) != d.NumCategories() {
		return fmt.Errorf("checkpoint: %d riggs results for %d categories",
			len(art.RiggsResults), d.NumCategories())
	}
	for c, cr := range art.RiggsResults {
		if cr == nil || len(cr.Quality) != len(cr.Reviews) ||
			len(cr.RaterRep) != len(cr.Raters) || len(cr.RaterCount) != len(cr.Raters) {
			return fmt.Errorf("checkpoint: malformed riggs result %d", c)
		}
		enc.uvarint(uint64(len(cr.Reviews)))
		for _, r := range cr.Reviews {
			enc.uvarint(uint64(r))
		}
		enc.floats(cr.Quality)
		enc.uvarint(uint64(len(cr.Raters)))
		for _, u := range cr.Raters {
			enc.uvarint(uint64(u))
		}
		enc.floats(cr.RaterRep)
		for _, n := range cr.RaterCount {
			enc.uvarint(uint64(n))
		}
		enc.uvarint(uint64(cr.Iterations))
		enc.boolByte(cr.Converged)
	}

	enc.matrix(art.Expertise, d.NumUsers(), d.NumCategories())
	enc.matrix(art.Affinity, d.NumUsers(), d.NumCategories())
	if enc.err != nil {
		return enc.err
	}

	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := bw.Write(sum[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// Read restores a model from r. opts must be the derive options the
// caller serves with: the recorded config fingerprint is checked against
// them (ErrStale on mismatch), and the derived-trust index is rebuilt
// under their worker setting. The returned offset is the event-log
// position the model reflects — the place to resume tailing from.
func Read(r io.Reader, opts ...weboftrust.Option) (*weboftrust.TrustModel, Info, error) {
	return read(r, 0, opts...)
}

// read is Read with a total-size hint (0 = unknown): when the caller
// knows how many bytes the stream can possibly hold (ReadFile stats the
// file), bulk sections under that bound allocate exactly once instead of
// growing geometrically.
func read(r io.Reader, sizeHint int64, opts ...weboftrust.Option) (*weboftrust.TrustModel, Info, error) {
	servingFingerprint, err := weboftrust.Fingerprint(opts...)
	if err != nil {
		return nil, Info{}, err
	}

	br := bufio.NewReaderSize(r, 1<<16)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, Info{}, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if m != magic {
		return nil, Info{}, ErrBadMagic
	}
	crc := crc32.New(castagnoli)
	dec := &decoder{r: br, crc: crc, sizeHint: sizeHint}

	version := dec.uvarint()
	if dec.err == nil && version != 1 && version != 2 && version != formatVersion {
		return nil, Info{}, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	fingerprint := dec.fixed64()
	if version == 2 {
		// Only an unsharded version-2 bundle has version 1's sections.
		if idx, cnt := dec.uvarint(), dec.uvarint(); dec.err == nil && (idx != 0 || cnt != 1) {
			return nil, Info{}, fmt.Errorf("%w: 2 with shard spec %d/%d", ErrBadVersion, idx, cnt)
		}
	}
	offset := dec.uvarint()
	logSize := dec.uvarint()
	if dec.err == nil && (offset > math.MaxInt64 || logSize > math.MaxInt64 || logSize < offset) {
		return nil, Info{}, fmt.Errorf("%w: offset %d / log size %d", ErrCorrupt, offset, logSize)
	}

	imgLen := dec.uvarint()
	if dec.err == nil && imgLen > maxDatasetBytes {
		return nil, Info{}, fmt.Errorf("%w: dataset section %d bytes too large", ErrCorrupt, imgLen)
	}
	img := dec.chunked(int64(imgLen))
	if dec.err != nil {
		return nil, Info{}, dec.err
	}
	d, err := ratings.DatasetFromImage(img)
	if err != nil {
		return nil, Info{}, fmt.Errorf("%w: embedded dataset: %v", ErrCorrupt, err)
	}

	// Every count below is bounded by the validated dataset's dimensions
	// before any slice is allocated.
	numU, numC, numR := d.NumUsers(), d.NumCategories(), d.NumReviews()
	results := make([]*riggs.CategoryResult, numC)
	for c := range results {
		cr := &riggs.CategoryResult{Category: ratings.CategoryID(c)}
		nrev := int(dec.count("reviews", uint64(numR)))
		cr.Reviews = make([]ratings.ReviewID, nrev)
		for i := range cr.Reviews {
			cr.Reviews[i] = ratings.ReviewID(dec.id("review", uint64(numR)))
		}
		cr.Quality = dec.floats(nrev)
		nrat := int(dec.count("raters", uint64(numU)))
		cr.Raters = make([]ratings.UserID, nrat)
		for i := range cr.Raters {
			cr.Raters[i] = ratings.UserID(dec.id("rater", uint64(numU)))
		}
		cr.RaterRep = dec.floats(nrat)
		cr.RaterCount = make([]int, nrat)
		for i := range cr.RaterCount {
			cr.RaterCount[i] = int(dec.count("rater count", uint64(numR)))
		}
		cr.Iterations = int(dec.count("iterations", 1<<30))
		cr.Converged = dec.boolByte()
		if dec.err != nil {
			return nil, Info{}, dec.err
		}
		results[c] = cr
	}

	e := dec.matrix(numU, numC)
	a := dec.matrix(numU, numC)
	if dec.err != nil {
		return nil, Info{}, dec.err
	}

	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return nil, Info{}, fmt.Errorf("%w: missing checksum: %v", ErrCorrupt, err)
	}
	if binary.LittleEndian.Uint32(sum[:]) != crc.Sum32() {
		return nil, Info{}, ErrChecksum
	}

	// Integrity is now established; only reject on staleness after the
	// bytes themselves are known good, so ErrStale reliably means "valid
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

type encoder struct {
	w   io.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (e *encoder) uvarint(v uint64) {
	if e.err != nil {
		return
	}
	n := binary.PutUvarint(e.buf[:], v)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *encoder) fixed64(v uint64) {
	if e.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(e.buf[:8], v)
	_, e.err = e.w.Write(e.buf[:8])
}

func (e *encoder) bytes(b []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(b)
}

func (e *encoder) boolByte(b bool) {
	var v byte
	if b {
		v = 1
	}
	e.bytes([]byte{v})
}

func (e *encoder) floats(fs []float64) {
	for _, f := range fs {
		e.fixed64(math.Float64bits(f))
	}
}

func (e *encoder) matrix(m *mat.Dense, rows, cols int) {
	if e.err != nil {
		return
	}
	if m == nil || m.Rows() != rows || m.Cols() != cols {
		e.err = fmt.Errorf("checkpoint: matrix shape mismatch (want %dx%d)", rows, cols)
		return
	}
	for i := 0; i < rows; i++ {
		e.floats(m.Row(i))
	}
}

type decoder struct {
	r   *bufio.Reader
	crc io.Writer
	err error
	// sizeHint, when positive, bounds the stream's total length: bulk
	// sections no larger than it allocate exactly once.
	sizeHint int64
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(crcByteReader{d})
	if err != nil {
		d.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
		return 0
	}
	return v
}

// count reads a uvarint and rejects values above max before the caller
// allocates anything sized by it.
func (d *decoder) count(what string, max uint64) uint64 {
	v := d.uvarint()
	if d.err == nil && v > max {
		d.err = fmt.Errorf("%w: %s count %d exceeds bound %d", ErrCorrupt, what, v, max)
		return 0
	}
	return v
}

// id reads a uvarint identifier and range-checks it against the dataset.
func (d *decoder) id(what string, n uint64) uint64 {
	v := d.uvarint()
	if d.err == nil && v >= n {
		d.err = fmt.Errorf("%w: %s id %d out of range %d", ErrCorrupt, what, v, n)
		return 0
	}
	return v
}

func (d *decoder) fixed64() uint64 {
	if d.err != nil {
		return 0
	}
	var buf [8]byte
	if _, err := io.ReadFull(d.r, buf[:]); err != nil {
		d.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
		return 0
	}
	d.crc.Write(buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

func (d *decoder) boolByte() bool {
	if d.err != nil {
		return false
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
		return false
	}
	d.crc.Write([]byte{b})
	switch b {
	case 0:
		return false
	case 1:
		return true
	default:
		d.err = fmt.Errorf("%w: bool byte %d", ErrCorrupt, b)
		return false
	}
}

// floats reads n exact float64 bit patterns in one bulk read (the E and
// A sections are hundreds of thousands of cells at scale; per-cell reads
// would dominate restore time). n is always derived from an
// already-validated count.
func (d *decoder) floats(n int) []float64 {
	if d.err != nil {
		return nil
	}
	raw := d.chunked(int64(n) * 8)
	if d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return out
}

func (d *decoder) matrix(rows, cols int) *mat.Dense {
	if d.err != nil {
		return nil
	}
	data := d.floats(rows * cols)
	if d.err != nil {
		return nil
	}
	m, err := mat.NewDenseData(rows, cols, data)
	if err != nil {
		d.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
		return nil
	}
	return m
}

// chunked reads exactly n bytes, growing the buffer geometrically but
// never past the bytes actually delivered (doubling, clamped to n): a
// forged length cannot preallocate more than ~2× what the stream really
// holds, and a genuine multi-megabyte section costs O(n) copying, not
// O(n²/chunk).
func (d *decoder) chunked(n int64) []byte {
	if d.err != nil {
		return nil
	}
	if d.sizeHint > 0 && n <= d.sizeHint {
		// The caller vouched the stream can hold n bytes, so a declared
		// length within that bound is safe to allocate in one piece.
		buf := make([]byte, n)
		if _, err := io.ReadFull(d.r, buf); err != nil {
			d.err = fmt.Errorf("%w: bulk section: %v", ErrCorrupt, err)
			return nil
		}
		d.crc.Write(buf)
		return buf
	}
	const chunk = 1 << 20
	buf := make([]byte, 0, min(n, chunk))
	for int64(len(buf)) < n {
		take := min(n-int64(len(buf)), chunk)
		if need := int64(len(buf)) + take; int64(cap(buf)) < need {
			grown := make([]byte, len(buf), min(max(2*int64(cap(buf)), need), n))
			copy(grown, buf)
			buf = grown
		}
		start := len(buf)
		buf = buf[:start+int(take)]
		if _, err := io.ReadFull(d.r, buf[start:]); err != nil {
			d.err = fmt.Errorf("%w: bulk section: %v", ErrCorrupt, err)
			return nil
		}
	}
	d.crc.Write(buf)
	return buf
}

// crcByteReader feeds single bytes to the varint reader while keeping the
// checksum in sync.
type crcByteReader struct{ d *decoder }

func (c crcByteReader) ReadByte() (byte, error) {
	b, err := c.d.r.ReadByte()
	if err == nil {
		c.d.crc.Write([]byte{b})
	}
	return b, err
}
