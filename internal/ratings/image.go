package ratings

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This file implements the dataset *image*: a trusted bulk binary form of
// a Dataset, built for warm restarts. Where an event-log replay folds
// every record through a validating Builder (dedup maps, one lookup per
// record — right for data of unknown provenance, and ~10× slower), the
// image decodes entity columns straight into the Dataset's slices with
// O(1)-per-record structural checks only, and decodes the frozen indexes
// rather than rebuilding them — index construction (counting sorts plus
// the direct-connection aggregation) is the dominant cost of loading a
// dataset at scale, and the arrays round-trip verbatim, which also makes
// a restored dataset trivially index-for-index identical to its original.
//
// The image carries NO checksum of its own and performs NO duplicate
// detection: the caller must deliver bytes whose integrity is already
// established (the checkpoint codec wraps the image in its CRC) and that
// originate from a real Dataset. What the decoder does guarantee, for
// any byte string whatsoever, is memory safety: every count is bounded
// by the bytes actually present before any allocation, every id is
// range-checked, offset arrays are validated monotonic, and malformed
// input yields ErrBadImage — never a panic or an outsized allocation
// (pinned by the checkpoint fuzz target). A forged index section can
// therefore misgroup records (provenance is the caller's problem) but
// never read out of bounds.
//
// Layout — header counts are varints; every array that scales with the
// dataset is fixed-width little-endian so decoding is a bulk conversion
// loop rather than per-element varint branching:
//
//	version (currently 1)
//	counts: users, categories, objects, reviews, ratings, trust edges
//	category names, user names        (len-prefixed strings)
//	objects                           (category u32, name)
//	reviews                           (writer u32, object u32; category derived)
//	ratings                           flag byte, then per rating
//	                                  (rater u32, review u32, value: one
//	                                  level byte when flag=1, else exact
//	                                  8-byte float bits)
//	trust edges                       (from u32, to u32)
//	indexes: reviews-by-category and reviews-by-writer (u32 offsets + u32
//	         review ids), ratings-by-review and ratings-by-rater (u32
//	         offsets + u32 permutations of the rating list), direct
//	         connections (u32 offsets + u32 writer / u32 count / f64 sum
//	         columns), trust adjacency (u32 offsets + u32 trustee ids)
//
// Rating values are quantized to a level byte only when every value is
// bitwise float64(level)/RatingLevels (what the Builder's callers and
// the event log produce); the flag keeps the
// exact 8-byte form for the off-grid values ValidRating's tolerance
// admits, so the image never changes a value's bits either way.

// ErrBadImage reports a structurally invalid dataset image.
var ErrBadImage = errors.New("ratings: bad dataset image")

const imageVersion = 1

// AppendImage appends the trusted binary image of d to dst and returns
// the extended slice.
func AppendImage(dst []byte, d *Dataset) []byte {
	dst = binary.AppendUvarint(dst, imageVersion)
	dst = binary.AppendUvarint(dst, uint64(d.NumUsers()))
	dst = binary.AppendUvarint(dst, uint64(d.NumCategories()))
	dst = binary.AppendUvarint(dst, uint64(d.NumObjects()))
	dst = binary.AppendUvarint(dst, uint64(d.NumReviews()))
	dst = binary.AppendUvarint(dst, uint64(d.NumRatings()))
	dst = binary.AppendUvarint(dst, uint64(d.NumTrustEdges()))
	appendStr := func(s string) {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	u32 := func(v int32) {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	for _, name := range d.categories {
		appendStr(name)
	}
	for _, name := range d.userNames {
		appendStr(name)
	}
	for _, o := range d.objects {
		u32(int32(o.Category))
		appendStr(o.Name)
	}
	for _, r := range d.reviews {
		u32(int32(r.Writer))
		u32(int32(r.Object))
	}
	quantized := byte(1)
	for _, rt := range d.ratingList {
		if math.Float64bits(rt.Value) != math.Float64bits(float64(RatingLevel(rt.Value))/RatingLevels) {
			quantized = 0
			break
		}
	}
	dst = append(dst, quantized)
	for _, rt := range d.ratingList {
		u32(int32(rt.Rater))
		u32(int32(rt.Review))
		if quantized == 1 {
			dst = append(dst, byte(RatingLevel(rt.Value)))
		} else {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rt.Value))
		}
	}
	for _, e := range d.trust {
		u32(int32(e.From))
		u32(int32(e.To))
	}

	// Frozen indexes. The ratings groupings are stored as permutations of
	// the rating list (an index per entry), not as copies of the records.
	idx := d.idx
	u32s := func(vs []int32) {
		for _, v := range vs {
			u32(v)
		}
	}
	u32s(idx.reviewsByCategoryOff)
	for _, r := range idx.reviewsByCategory {
		u32(int32(r))
	}
	u32s(idx.reviewsByWriterOff)
	for _, r := range idx.reviewsByWriter {
		u32(int32(r))
	}
	u32s(idx.ratingsByReviewOff)
	u32s(ratingPerm(d.ratingList, d.NumReviews(), func(r Rating) int32 { return int32(r.Review) }))
	u32s(idx.ratingsByRaterOff)
	u32s(ratingPerm(d.ratingList, d.NumUsers(), func(r Rating) int32 { return int32(r.Rater) }))
	u32s(idx.connOff)
	for i, to := range idx.connTo {
		u32(int32(to))
		u32(idx.connCount[i])
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(idx.connSum[i]))
	}
	u32s(idx.trustOff)
	for _, to := range idx.trustTo {
		u32(int32(to))
	}
	return dst
}

// ratingPerm runs the same stable counting sort groupRatings freezes,
// but yields the source index of each grouped slot instead of the record
// — the permutation the image stores so the decoder can gather instead
// of re-sorting.
func ratingPerm(list []Rating, groups int, key func(Rating) int32) []int32 {
	off := make([]int32, groups+1)
	for _, r := range list {
		off[key(r)+1]++
	}
	for g := 0; g < groups; g++ {
		off[g+1] += off[g]
	}
	perm := make([]int32, len(list))
	next := off[:groups]
	for i, r := range list {
		g := key(r)
		perm[next[g]] = int32(i)
		next[g]++
	}
	return perm
}

// DatasetFromImage decodes an image produced by AppendImage. See the
// file comment for the trust model: bytes must be integrity-checked by
// the caller; the decoder guarantees memory safety and structural sanity
// for arbitrary input, not provenance.
func DatasetFromImage(data []byte) (*Dataset, error) {
	ir := &imageReader{rest: data}
	if v := ir.uvarint(); ir.err == nil && v != imageVersion {
		return nil, fmt.Errorf("%w: image version %d", ErrBadImage, v)
	}
	numU := ir.count("user", 1)
	numC := ir.count("category", 1)
	numO := ir.count("object", 5)
	numRv := ir.count("review", 8)
	numRt := ir.count("rating", 9)
	numT := ir.count("trust", 8)
	if ir.err != nil {
		return nil, ir.err
	}

	// Entity sections grow by capped append while bytes are consumed
	// rather than being pre-sized from the header counts: an in-memory
	// entry costs up to 16x its wire form, so a count-sized make would
	// let a forged header allocate many times the input before a single
	// section byte is read. With append, allocation stays within a small
	// constant of the bytes actually decoded, and a lying count dies on
	// EOF.
	d := &Dataset{}
	d.categories = ir.strs(numC)
	d.userNames = ir.strs(numU)
	d.objects = growEntity(d.objects, numO)
	for i := 0; i < numO && ir.err == nil; i++ {
		cat := ir.u32("object category", numC)
		d.objects = append(d.objects, Object{ID: ObjectID(i), Category: CategoryID(cat), Name: ir.str()})
	}
	d.reviews = growEntity(d.reviews, numRv)
	for i := 0; i < numRv && ir.err == nil; i++ {
		writer := ir.u32("review writer", numU)
		object := ir.u32("review object", numO)
		if ir.err != nil {
			break
		}
		d.reviews = append(d.reviews, Review{
			ID:       ReviewID(i),
			Writer:   UserID(writer),
			Object:   ObjectID(object),
			Category: d.objects[object].Category,
		})
	}
	quantized := ir.byte()
	if ir.err == nil && quantized > 1 {
		return nil, fmt.Errorf("%w: rating encoding flag %d", ErrBadImage, quantized)
	}
	d.ratingList = growEntity(d.ratingList, numRt)
	for i := 0; i < numRt && ir.err == nil; i++ {
		rater := ir.u32("rater", numU)
		review := ir.u32("rated review", numRv)
		var value float64
		if quantized == 1 {
			level := ir.byte()
			if ir.err == nil && (level < 1 || level > RatingLevels) {
				return nil, fmt.Errorf("%w: rating %d level %d", ErrBadImage, i, level)
			}
			value = float64(level) / RatingLevels
		} else {
			value = ir.floatBits()
			if ir.err == nil && !ValidRating(value) {
				return nil, fmt.Errorf("%w: rating %d value %v off scale", ErrBadImage, i, value)
			}
		}
		if ir.err != nil {
			break
		}
		d.ratingList = append(d.ratingList, Rating{Rater: UserID(rater), Review: ReviewID(review), Value: value})
	}
	d.trust = growEntity(d.trust, numT)
	for i := 0; i < numT && ir.err == nil; i++ {
		from := ir.u32("trust from", numU)
		to := ir.u32("trust to", numU)
		d.trust = append(d.trust, TrustEdge{From: UserID(from), To: UserID(to)})
	}
	if ir.err != nil {
		return nil, ir.err
	}

	// Frozen indexes: decode the arrays instead of rebuilding them.
	idx := &indexes{}
	idx.reviewsByCategoryOff = ir.offsets("reviews by category", numC, numRv, true)
	idx.reviewsByCategory = reviewIDs(ir.u32s("reviews by category ids", numRv, numRv))
	idx.reviewsByWriterOff = ir.offsets("reviews by writer", numU, numRv, true)
	idx.reviewsByWriter = reviewIDs(ir.u32s("reviews by writer ids", numRv, numRv))
	idx.ratingsByReviewOff = ir.offsets("ratings by review", numRv, numRt, true)
	idx.ratingsByReview = gather(d.ratingList, ir.u32s("ratings by review perm", numRt, numRt))
	idx.ratingsByRaterOff = ir.offsets("ratings by rater", numU, numRt, true)
	idx.ratingsByRater = gather(d.ratingList, ir.u32s("ratings by rater perm", numRt, numRt))
	idx.connOff = ir.offsets("connections", numU, numRt, false)
	if ir.err == nil {
		connN := int(idx.connOff[numU])
		idx.connTo = make([]UserID, connN)
		idx.connCount = make([]int32, connN)
		idx.connSum = make([]float64, connN)
		for i := 0; i < connN; i++ {
			idx.connTo[i] = UserID(ir.u32("connection writer", numU))
			count := ir.u32("connection count", numRt+1)
			if ir.err == nil && count == 0 {
				ir.fail("connection count 0")
			}
			idx.connCount[i] = count
			idx.connSum[i] = ir.floatBits()
		}
	}
	idx.trustOff = ir.offsets("trust adjacency", numU, numT, true)
	if ir.err == nil {
		idx.trustTo = make([]UserID, numT)
		for i, v := range ir.u32s("trustees", numT, numU) {
			idx.trustTo[i] = UserID(v)
		}
	}
	if ir.err != nil {
		return nil, ir.err
	}
	if len(ir.rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadImage, len(ir.rest))
	}
	d.idx = idx
	return d, nil
}

func reviewIDs(vs []int32) []ReviewID {
	out := make([]ReviewID, len(vs))
	for i, v := range vs {
		out[i] = ReviewID(v)
	}
	return out
}

// gather materialises a rating grouping from its stored (already
// range-checked) permutation.
func gather(list []Rating, perm []int32) []Rating {
	out := make([]Rating, len(perm))
	for i, p := range perm {
		out[i] = list[p]
	}
	return out
}

// imageReader decodes an image from an in-memory byte string, which lets
// every count be validated against the bytes actually remaining before
// anything is allocated.
type imageReader struct {
	rest []byte
	err  error
}

func (ir *imageReader) fail(format string, args ...any) {
	if ir.err == nil {
		ir.err = fmt.Errorf("%w: "+format, append([]any{ErrBadImage}, args...)...)
	}
}

func (ir *imageReader) uvarint() uint64 {
	if ir.err != nil {
		return 0
	}
	v, n := binary.Uvarint(ir.rest)
	if n <= 0 {
		ir.fail("truncated varint")
		return 0
	}
	ir.rest = ir.rest[n:]
	return v
}

// count reads a section count and bounds it: a section of n records, each
// at least minBytes long, cannot be larger than the bytes that remain —
// so no forged count can size an allocation past the input's own length.
func (ir *imageReader) count(what string, minBytes int) int {
	v := ir.uvarint()
	if ir.err != nil {
		return 0
	}
	if v > uint64(len(ir.rest)/minBytes) {
		ir.fail("%s count %d exceeds remaining %d bytes", what, v, len(ir.rest))
		return 0
	}
	return int(v)
}

// u32 reads one fixed-width identifier and range-checks it.
func (ir *imageReader) u32(what string, n int) int32 {
	if ir.err != nil {
		return 0
	}
	if len(ir.rest) < 4 {
		ir.fail("truncated %s", what)
		return 0
	}
	v := binary.LittleEndian.Uint32(ir.rest)
	ir.rest = ir.rest[4:]
	if v >= uint32(n) {
		ir.fail("%s id %d out of range %d", what, v, n)
		return 0
	}
	return int32(v)
}

// u32s bulk-decodes n fixed-width values, each range-checked below max —
// the hot path for payload and permutation arrays.
func (ir *imageReader) u32s(what string, n, max int) []int32 {
	if ir.err != nil {
		return nil
	}
	if len(ir.rest) < 4*n {
		ir.fail("truncated %s (%d entries)", what, n)
		return nil
	}
	raw := ir.rest[:4*n]
	ir.rest = ir.rest[4*n:]
	out := make([]int32, n)
	bound := uint32(max)
	for i := range out {
		v := binary.LittleEndian.Uint32(raw[4*i:])
		if v >= bound {
			ir.fail("%s entry %d out of range %d", what, v, max)
			return nil
		}
		out[i] = int32(v)
	}
	return out
}

// imageAllocChunk caps the initial capacity of count-sized entity
// slices; growth past it happens only as wire bytes are consumed.
const imageAllocChunk = 1 << 12

// growEntity returns a zero-length slice with capacity capped at
// imageAllocChunk entries regardless of the (untrusted) declared count.
func growEntity[T any](_ []T, n int) []T {
	return make([]T, 0, min(n, imageAllocChunk))
}

// strs decodes n length-prefixed strings by capped append.
func (ir *imageReader) strs(n int) []string {
	out := make([]string, 0, min(n, imageAllocChunk))
	for i := 0; i < n && ir.err == nil; i++ {
		out = append(out, ir.str())
	}
	return out
}

func (ir *imageReader) byte() byte {
	if ir.err != nil {
		return 0
	}
	if len(ir.rest) < 1 {
		ir.fail("truncated byte")
		return 0
	}
	b := ir.rest[0]
	ir.rest = ir.rest[1:]
	return b
}

func (ir *imageReader) str() string {
	n := ir.uvarint()
	if ir.err != nil {
		return ""
	}
	if n > uint64(len(ir.rest)) {
		ir.fail("string length %d exceeds remaining %d bytes", n, len(ir.rest))
		return ""
	}
	s := string(ir.rest[:n])
	ir.rest = ir.rest[n:]
	return s
}

func (ir *imageReader) floatBits() float64 {
	if ir.err != nil {
		return 0
	}
	if len(ir.rest) < 8 {
		ir.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(ir.rest))
	ir.rest = ir.rest[8:]
	return v
}

// offsets decodes a groups+1 fixed-width offset array, enforcing
// monotonicity within [0, payloadLen] starting at 0 — so any group slice
// taken through it is in bounds. When exact is set the final entry must
// equal payloadLen (the grouping covers the whole payload); the
// connection index instead treats payloadLen as an upper bound, its
// final entry defining the payload's actual length.
func (ir *imageReader) offsets(what string, groups, payloadLen int, exact bool) []int32 {
	if ir.err != nil {
		return nil
	}
	if len(ir.rest) < 4*(groups+1) {
		ir.fail("truncated %s offsets", what)
		return nil
	}
	offs := make([]int32, groups+1)
	prev := uint32(0)
	for i := range offs {
		v := binary.LittleEndian.Uint32(ir.rest[4*i:])
		if v < prev || v > uint32(payloadLen) {
			ir.fail("%s offsets not monotonic in [0,%d]", what, payloadLen)
			return nil
		}
		offs[i] = int32(v)
		prev = v
	}
	ir.rest = ir.rest[4*(groups+1):]
	if offs[0] != 0 {
		ir.fail("%s offsets start at %d", what, offs[0])
		return nil
	}
	if exact && int(offs[groups]) != payloadLen {
		ir.fail("%s offsets end at %d, want %d", what, offs[groups], payloadLen)
		return nil
	}
	return offs
}
