package ratings

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"weboftrust/internal/wire"
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
// established (a checkpoint bundle embeds the image and checks its CRC
// before decoding any section) and that originate from a real Dataset.
// What the decoder does guarantee, for any byte string whatsoever, is
// memory safety. It reads through internal/wire's bounded reader, the
// one the checkpoint bundle's other sections decode through: every count
// is bounded by the bytes actually present before any allocation, every
// id is range-checked, offset arrays are validated monotonic, and
// malformed input yields ErrBadImage — never a panic or an outsized
// allocation (pinned by the checkpoint fuzz target, which re-seals its
// inputs' checksums to reach this decoder). A forged index section can
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
	ir := wire.NewReader(data, ErrBadImage)
	if v := ir.Uvarint(); ir.Err() == nil && v != imageVersion {
		return nil, fmt.Errorf("%w: image version %d", ErrBadImage, v)
	}
	numU := ir.Count("user", 1)
	numC := ir.Count("category", 1)
	numO := ir.Count("object", 5)
	numRv := ir.Count("review", 8)
	numRt := ir.Count("rating", 9)
	numT := ir.Count("trust", 8)
	if ir.Err() != nil {
		return nil, ir.Err()
	}

	// Entity sections grow by capped append while bytes are consumed
	// rather than being pre-sized from the header counts: an in-memory
	// entry costs up to 16x its wire form, so a count-sized make would
	// let a forged header allocate many times the input before a single
	// section byte is read. With append, allocation stays within a small
	// constant of the bytes actually decoded, and a lying count dies on
	// EOF.
	d := &Dataset{}
	d.categories = strs(ir, numC)
	d.userNames = strs(ir, numU)
	d.objects = growEntity(d.objects, numO)
	for i := 0; i < numO && ir.Err() == nil; i++ {
		cat := ir.U32("object category", numC)
		d.objects = append(d.objects, Object{ID: ObjectID(i), Category: CategoryID(cat), Name: ir.Str()})
	}
	d.reviews = growEntity(d.reviews, numRv)
	for i := 0; i < numRv && ir.Err() == nil; i++ {
		writer := ir.U32("review writer", numU)
		object := ir.U32("review object", numO)
		if ir.Err() != nil {
			break
		}
		d.reviews = append(d.reviews, Review{
			ID:       ReviewID(i),
			Writer:   UserID(writer),
			Object:   ObjectID(object),
			Category: d.objects[object].Category,
		})
	}
	quantized := ir.Byte()
	if ir.Err() == nil && quantized > 1 {
		return nil, fmt.Errorf("%w: rating encoding flag %d", ErrBadImage, quantized)
	}
	d.ratingList = growEntity(d.ratingList, numRt)
	for i := 0; i < numRt && ir.Err() == nil; i++ {
		rater := ir.U32("rater", numU)
		review := ir.U32("rated review", numRv)
		var value float64
		if quantized == 1 {
			level := ir.Byte()
			if ir.Err() == nil && (level < 1 || level > RatingLevels) {
				return nil, fmt.Errorf("%w: rating %d level %d", ErrBadImage, i, level)
			}
			value = float64(level) / RatingLevels
		} else {
			value = ir.Float()
			if ir.Err() == nil && !ValidRating(value) {
				return nil, fmt.Errorf("%w: rating %d value %v off scale", ErrBadImage, i, value)
			}
		}
		if ir.Err() != nil {
			break
		}
		d.ratingList = append(d.ratingList, Rating{Rater: UserID(rater), Review: ReviewID(review), Value: value})
	}
	d.trust = growEntity(d.trust, numT)
	for i := 0; i < numT && ir.Err() == nil; i++ {
		from := ir.U32("trust from", numU)
		to := ir.U32("trust to", numU)
		d.trust = append(d.trust, TrustEdge{From: UserID(from), To: UserID(to)})
	}
	if ir.Err() != nil {
		return nil, ir.Err()
	}

	// Frozen indexes: decode the arrays instead of rebuilding them.
	idx := &indexes{}
	idx.reviewsByCategoryOff = ir.Offsets("reviews by category", numC, numRv, true)
	idx.reviewsByCategory = reviewIDs(ir.U32s("reviews by category ids", numRv, numRv))
	idx.reviewsByWriterOff = ir.Offsets("reviews by writer", numU, numRv, true)
	idx.reviewsByWriter = reviewIDs(ir.U32s("reviews by writer ids", numRv, numRv))
	idx.ratingsByReviewOff = ir.Offsets("ratings by review", numRv, numRt, true)
	idx.ratingsByReview = gather(d.ratingList, ir.U32s("ratings by review perm", numRt, numRt))
	idx.ratingsByRaterOff = ir.Offsets("ratings by rater", numU, numRt, true)
	idx.ratingsByRater = gather(d.ratingList, ir.U32s("ratings by rater perm", numRt, numRt))
	idx.connOff = ir.Offsets("connections", numU, numRt, false)
	if ir.Err() == nil {
		connN := int(idx.connOff[numU])
		idx.connTo = make([]UserID, connN)
		idx.connCount = make([]int32, connN)
		idx.connSum = make([]float64, connN)
		for i := 0; i < connN; i++ {
			idx.connTo[i] = UserID(ir.U32("connection writer", numU))
			count := ir.U32("connection count", numRt+1)
			if ir.Err() == nil && count == 0 {
				ir.Fail("connection count 0")
			}
			idx.connCount[i] = count
			idx.connSum[i] = ir.Float()
		}
	}
	idx.trustOff = ir.Offsets("trust adjacency", numU, numT, true)
	if ir.Err() == nil {
		idx.trustTo = make([]UserID, numT)
		for i, v := range ir.U32s("trustees", numT, numU) {
			idx.trustTo[i] = UserID(v)
		}
	}
	if ir.Err() != nil {
		return nil, ir.Err()
	}
	if ir.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadImage, ir.Len())
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

// imageAllocChunk caps the initial capacity of count-sized entity
// slices; growth past it happens only as wire bytes are consumed.
const imageAllocChunk = 1 << 12

// growEntity returns a zero-length slice with capacity capped at
// imageAllocChunk entries regardless of the (untrusted) declared count.
func growEntity[T any](_ []T, n int) []T {
	return make([]T, 0, min(n, imageAllocChunk))
}

// strs decodes n length-prefixed strings by capped append.
func strs(ir *wire.Reader, n int) []string {
	out := growEntity([]string(nil), n)
	for i := 0; i < n && ir.Err() == nil; i++ {
		out = append(out, ir.Str())
	}
	return out
}
