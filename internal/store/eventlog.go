// Package store persists datasets as an append-only event log, the shape
// a crawler or online community writes as it discovers entities: trustd
// tails one, checkpoint.Load replays one, and every trustctl dataset is
// one. Each record is framed as its payload length (uvarint), the
// payload, and the payload's CRC-32C (4 bytes little-endian). Reads
// verify every frame, and Replay re-validates every record through a
// ratings.Builder, so a corrupted or inconsistent log never yields a
// dataset. ExportCSV writes a dataset as CSV for interoperability.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"weboftrust/internal/ratings"
)

// EventKind tags a log record. The event log is the ingestion shape: a
// crawler or online community appends events as it discovers entities, and
// Replay folds them into a validated dataset.
type EventKind uint8

// Event kinds.
const (
	EvAddCategory EventKind = iota + 1
	EvAddUser
	EvAddObject
	EvAddReview
	EvAddRating
	EvAddTrust
)

var (
	// ErrUnknownEvent reports an unrecognised event kind during replay.
	ErrUnknownEvent = errors.New("store: unknown event kind")
	// ErrChecksum reports a log record whose payload fails its CRC.
	ErrChecksum = errors.New("store: checksum mismatch")
	// ErrCorrupt reports a structurally invalid log record.
	ErrCorrupt = errors.New("store: corrupt data")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxFrameBytes bounds one log record's payload — the only allocation a
// log decoder sizes from wire data. Real records are tens of bytes; the
// cap keeps a forged frame length from preallocating the daemon into an
// OOM while leaving generous headroom for long names.
const maxFrameBytes = 1 << 20

// ErrTruncated reports an event log whose final record is incomplete —
// the shape a crash during append leaves behind. Unlike ErrCorrupt, the
// complete prefix is intact and usable; errors carrying ErrTruncated are
// always a *TruncatedError, whose Offset says where the good prefix ends
// so a tailer can resume once the writer completes the record.
var ErrTruncated = errors.New("store: truncated log tail")

// TruncatedError is the concrete error for a mid-record end of log. It
// wraps ErrTruncated, so errors.Is(err, ErrTruncated) matches.
type TruncatedError struct {
	// Offset is the byte offset just past the last complete record: the
	// position to resume reading from after the writer finishes (or the
	// length to truncate the log to when discarding the torn tail).
	Offset int64
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("store: truncated log tail (last good offset %d)", e.Offset)
}

func (e *TruncatedError) Unwrap() error { return ErrTruncated }

// Event is one log record. Which fields are meaningful depends on Kind:
//
//	EvAddCategory: Name
//	EvAddUser:     Name
//	EvAddObject:   Category, Name
//	EvAddReview:   User (writer), Object
//	EvAddRating:   User (rater), Review, Level (1..5)
//	EvAddTrust:    User (from), To
type Event struct {
	Kind     EventKind
	Name     string
	Category ratings.CategoryID
	Object   ratings.ObjectID
	Review   ratings.ReviewID
	User     ratings.UserID
	To       ratings.UserID
	Level    uint8
}

// LogWriter appends events to an underlying writer. Each record is framed
// as: payload length (uvarint), payload, crc32c of payload (4 bytes LE).
// Call Flush before closing the underlying writer.
type LogWriter struct {
	w   *bufio.Writer
	buf []byte
}

// NewLogWriter wraps w for appending.
func NewLogWriter(w io.Writer) *LogWriter {
	return &LogWriter{w: bufio.NewWriter(w)}
}

// Append writes one event record.
func (lw *LogWriter) Append(ev Event) error {
	lw.buf = lw.buf[:0]
	lw.buf = append(lw.buf, byte(ev.Kind))
	switch ev.Kind {
	case EvAddCategory, EvAddUser:
		lw.buf = appendString(lw.buf, ev.Name)
	case EvAddObject:
		lw.buf = binary.AppendUvarint(lw.buf, uint64(ev.Category))
		lw.buf = appendString(lw.buf, ev.Name)
	case EvAddReview:
		lw.buf = binary.AppendUvarint(lw.buf, uint64(ev.User))
		lw.buf = binary.AppendUvarint(lw.buf, uint64(ev.Object))
	case EvAddRating:
		lw.buf = binary.AppendUvarint(lw.buf, uint64(ev.User))
		lw.buf = binary.AppendUvarint(lw.buf, uint64(ev.Review))
		lw.buf = append(lw.buf, ev.Level)
	case EvAddTrust:
		lw.buf = binary.AppendUvarint(lw.buf, uint64(ev.User))
		lw.buf = binary.AppendUvarint(lw.buf, uint64(ev.To))
	default:
		return fmt.Errorf("%w: %d", ErrUnknownEvent, ev.Kind)
	}
	var frame [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(frame[:], uint64(len(lw.buf)))
	if _, err := lw.w.Write(frame[:n]); err != nil {
		return err
	}
	if _, err := lw.w.Write(lw.buf); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Checksum(lw.buf, castagnoli))
	_, err := lw.w.Write(sum[:])
	return err
}

// Flush flushes buffered records to the underlying writer.
func (lw *LogWriter) Flush() error { return lw.w.Flush() }

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// LogReader decodes event records one at a time, tracking the byte offset
// of the last complete record so callers can checkpoint their position and
// resume later — the shape a tailing daemon needs. It distinguishes a torn
// final record (*TruncatedError, recoverable by re-reading from Offset once
// the writer finishes) from genuine corruption (ErrCorrupt / ErrChecksum).
type LogReader struct {
	br     *bufio.Reader
	offset int64 // bytes of complete, validated records consumed
}

// NewLogReader wraps r for record-at-a-time decoding. The reader's offset
// starts at base, which must be the stream position of r's first byte
// (0 for a whole log, the saved checkpoint when r was seeked there).
func NewLogReader(r io.Reader, base int64) *LogReader {
	return &LogReader{br: bufio.NewReader(r), offset: base}
}

// Offset returns the byte offset just past the last complete record read.
func (lr *LogReader) Offset() int64 { return lr.offset }

// readUvarint is binary.ReadUvarint with byte accounting, so truncation
// inside the length prefix is detected and the offset stays exact.
func (lr *LogReader) readUvarint() (v uint64, n int, err error) {
	for shift := uint(0); ; shift += 7 {
		b, err := lr.br.ReadByte()
		if err != nil {
			return 0, n, err
		}
		n++
		if shift >= 64 {
			return 0, n, fmt.Errorf("%w: frame length overflows uvarint", ErrCorrupt)
		}
		if b < 0x80 {
			return v | uint64(b)<<shift, n, nil
		}
		v |= uint64(b&0x7f) << shift
	}
}

// Next decodes the next record. At a clean end of log it returns io.EOF;
// at a mid-record end it returns a *TruncatedError carrying the last good
// offset. Any other error means the log is corrupt at the current offset.
func (lr *LogReader) Next() (Event, error) {
	length, lenBytes, err := lr.readUvarint()
	if err == io.EOF {
		if lenBytes == 0 {
			return Event{}, io.EOF
		}
		return Event{}, &TruncatedError{Offset: lr.offset}
	}
	if err != nil {
		return Event{}, fmt.Errorf("%w: frame length: %v", ErrCorrupt, err)
	}
	if length == 0 || length > maxFrameBytes {
		return Event{}, fmt.Errorf("%w: frame length %d", ErrCorrupt, length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(lr.br, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Event{}, &TruncatedError{Offset: lr.offset}
		}
		return Event{}, fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(lr.br, sum[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Event{}, &TruncatedError{Offset: lr.offset}
		}
		return Event{}, fmt.Errorf("%w: record checksum: %v", ErrCorrupt, err)
	}
	if binary.LittleEndian.Uint32(sum[:]) != crc32.Checksum(payload, castagnoli) {
		return Event{}, ErrChecksum
	}
	ev, err := decodeEvent(payload)
	if err != nil {
		return Event{}, err
	}
	lr.offset += int64(lenBytes) + int64(length) + 4
	return ev, nil
}

// ReadAll decodes records until the end of the log, returning every
// complete event. A clean end returns a nil error; a torn final record
// returns the complete prefix alongside a *TruncatedError.
func (lr *LogReader) ReadAll() ([]Event, error) {
	var events []Event
	for {
		ev, err := lr.Next()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return events, err
		}
		events = append(events, ev)
	}
}

// ReadLog decodes all event records from r. It fails on framing or
// checksum errors; a truncated final record is reported as a
// *TruncatedError (matching ErrTruncated) alongside the intact prefix.
func ReadLog(r io.Reader) ([]Event, error) {
	return NewLogReader(r, 0).ReadAll()
}

// ReadLogFrom seeks r to offset and decodes every complete record from
// there, returning the events and the offset just past the last complete
// record. A clean end of log returns a nil error; a torn final record
// returns the events read so far with a *TruncatedError whose Offset
// equals the returned offset — the caller keeps the events, checkpoints
// the offset, and retries after the writer finishes the record. This is
// the resumable-tail primitive trustd's ingest loop is built on.
func ReadLogFrom(r io.ReadSeeker, offset int64) ([]Event, int64, error) {
	if _, err := r.Seek(offset, io.SeekStart); err != nil {
		return nil, offset, fmt.Errorf("store: seek to log offset %d: %w", offset, err)
	}
	lr := NewLogReader(r, offset)
	events, err := lr.ReadAll()
	return events, lr.Offset(), err
}

func decodeEvent(payload []byte) (Event, error) {
	var ev Event
	ev.Kind = EventKind(payload[0])
	rest := payload[1:]
	u := func() uint64 {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			rest = nil
			return 0
		}
		rest = rest[n:]
		return v
	}
	str := func() string {
		n := u()
		if uint64(len(rest)) < n {
			rest = nil
			return ""
		}
		s := string(rest[:n])
		rest = rest[n:]
		return s
	}
	switch ev.Kind {
	case EvAddCategory, EvAddUser:
		ev.Name = str()
	case EvAddObject:
		ev.Category = ratings.CategoryID(u())
		ev.Name = str()
	case EvAddReview:
		ev.User = ratings.UserID(u())
		ev.Object = ratings.ObjectID(u())
	case EvAddRating:
		ev.User = ratings.UserID(u())
		ev.Review = ratings.ReviewID(u())
		if len(rest) < 1 {
			return ev, fmt.Errorf("%w: rating event too short", ErrCorrupt)
		}
		ev.Level = rest[0]
		rest = rest[1:]
	case EvAddTrust:
		ev.User = ratings.UserID(u())
		ev.To = ratings.UserID(u())
	default:
		return ev, fmt.Errorf("%w: %d", ErrUnknownEvent, ev.Kind)
	}
	if rest == nil {
		return ev, fmt.Errorf("%w: short event payload", ErrCorrupt)
	}
	return ev, nil
}

// Replay folds events into a builder, validating each. It returns the
// first validation error with the offending record index.
func Replay(events []Event, b *ratings.Builder) error {
	for i, ev := range events {
		var err error
		switch ev.Kind {
		case EvAddCategory:
			b.AddCategory(ev.Name)
		case EvAddUser:
			b.AddUser(ev.Name)
		case EvAddObject:
			_, err = b.AddObject(ev.Category, ev.Name)
		case EvAddReview:
			_, err = b.AddReview(ev.User, ev.Object)
		case EvAddRating:
			if ev.Level < 1 || ev.Level > ratings.RatingLevels {
				err = fmt.Errorf("%w: level %d", ratings.ErrInvalidRating, ev.Level)
			} else {
				err = b.AddRating(ev.User, ev.Review, float64(ev.Level)/ratings.RatingLevels)
			}
		case EvAddTrust:
			err = b.AddTrust(ev.User, ev.To)
		default:
			err = fmt.Errorf("%w: %d", ErrUnknownEvent, ev.Kind)
		}
		if err != nil {
			return fmt.Errorf("store: replay event %d: %w", i, err)
		}
	}
	return nil
}

// AppendDataset writes the whole dataset to the log as events, in
// dependency order, so a fresh replay reconstructs it exactly.
func AppendDataset(lw *LogWriter, d *ratings.Dataset) error {
	for c := 0; c < d.NumCategories(); c++ {
		if err := lw.Append(Event{Kind: EvAddCategory, Name: d.CategoryName(ratings.CategoryID(c))}); err != nil {
			return err
		}
	}
	for u := 0; u < d.NumUsers(); u++ {
		if err := lw.Append(Event{Kind: EvAddUser, Name: d.UserName(ratings.UserID(u))}); err != nil {
			return err
		}
	}
	for o := 0; o < d.NumObjects(); o++ {
		obj := d.Object(ratings.ObjectID(o))
		if err := lw.Append(Event{Kind: EvAddObject, Category: obj.Category, Name: obj.Name}); err != nil {
			return err
		}
	}
	for r := 0; r < d.NumReviews(); r++ {
		rev := d.Review(ratings.ReviewID(r))
		if err := lw.Append(Event{Kind: EvAddReview, User: rev.Writer, Object: rev.Object}); err != nil {
			return err
		}
	}
	for _, rt := range d.Ratings() {
		ev := Event{Kind: EvAddRating, User: rt.Rater, Review: rt.Review, Level: uint8(ratings.RatingLevel(rt.Value))}
		if err := lw.Append(ev); err != nil {
			return err
		}
	}
	for _, e := range d.TrustEdges() {
		if err := lw.Append(Event{Kind: EvAddTrust, User: e.From, To: e.To}); err != nil {
			return err
		}
	}
	return lw.Flush()
}
