// Package binc is the compact binary codec under the persistent artifact
// store: varint-coded scalars plus an interned string table. Every distinct
// string is stored once and referenced by index, so decoding a payload
// allocates each string exactly once no matter how often it repeats — class
// names, access flags and opcode arguments recur constantly in encoded apps
// — and the hot decode path is free of reflection (the reason encoding/gob
// was rejected: its reflective decode made a warm disk load slower than a
// cold rebuild).
//
// A payload is: uvarint string count, then each string as uvarint length +
// raw bytes, then the body. The body's meaning is entirely up to the caller;
// Writer and Reader only provide the primitives. Readers carry a sticky
// error so call sites stay linear; callers must check Err before trusting
// the decoded values.
package binc

import (
	"encoding/binary"
	"fmt"
)

// Writer accumulates a payload. The zero value is not usable; use NewWriter.
type Writer struct {
	body []byte
	idx  map[string]uint64
	strs []string
}

// NewWriter returns an empty writer.
func NewWriter() *Writer {
	return &Writer{idx: make(map[string]uint64)}
}

// Uvarint appends an unsigned varint to the body.
func (w *Writer) Uvarint(x uint64) {
	w.body = binary.AppendUvarint(w.body, x)
}

// Int appends a non-negative integer. Negative values are encoded as zero —
// the store never needs them and rejecting here would force error plumbing
// through every codec.
func (w *Writer) Int(x int) {
	if x < 0 {
		x = 0
	}
	w.Uvarint(uint64(x))
}

// Bool appends a boolean byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.body = append(w.body, 1)
	} else {
		w.body = append(w.body, 0)
	}
}

// Str appends an interned string reference.
func (w *Writer) Str(s string) {
	i, ok := w.idx[s]
	if !ok {
		i = uint64(len(w.strs))
		w.idx[s] = i
		w.strs = append(w.strs, s)
	}
	w.Uvarint(i)
}

// StrSlice appends a length-prefixed sequence of interned strings.
func (w *Writer) StrSlice(ss []string) {
	w.Int(len(ss))
	for _, s := range ss {
		w.Str(s)
	}
}

// Blob appends a length-prefixed opaque byte string (for nested encodings
// that carry their own structure, like an embedded sub-codec payload).
func (w *Writer) Blob(b []byte) {
	w.Int(len(b))
	w.body = append(w.body, b...)
}

// Bytes assembles the final payload: string table, then body.
func (w *Writer) Bytes() []byte {
	out := binary.AppendUvarint(nil, uint64(len(w.strs)))
	for _, s := range w.strs {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	return append(out, w.body...)
}

// Reader decodes a payload produced by Writer.
type Reader struct {
	data []byte
	pos  int
	strs []string
	err  error
}

// NewReader parses the string table and positions the reader at the body.
func NewReader(data []byte) (*Reader, error) {
	r := &Reader{data: data}
	n := r.Uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if n > uint64(len(data)) {
		return nil, fmt.Errorf("binc: string table claims %d entries in %d bytes", n, len(data))
	}
	// Decode the table in two passes over one string conversion: the whole
	// table region becomes a single backing allocation and every entry is a
	// zero-copy substring of it, instead of one allocation per string.
	lens := make([]int, n)
	start := r.pos
	for i := uint64(0); i < n; i++ {
		l := r.Uvarint()
		if r.err != nil {
			return nil, r.err
		}
		if uint64(r.pos)+l > uint64(len(data)) {
			return nil, fmt.Errorf("binc: string %d overruns payload", i)
		}
		lens[i] = int(l)
		r.pos += int(l)
	}
	region := string(data[start:r.pos])
	r.strs = make([]string, 0, n)
	off := 0
	for _, l := range lens {
		// Skip past this entry's length prefix, then slice the string.
		off += uvarintLen(uint64(l))
		r.strs = append(r.strs, region[off:off+l])
		off += l
	}
	return r, nil
}

// uvarintLen returns the encoded size of x, for walking the table region.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// Err returns the sticky decode error, nil if every read so far succeeded.
func (r *Reader) Err() error { return r.err }

// fail records the first decode error.
func (r *Reader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("binc: %s at offset %d", msg, r.pos)
	}
}

// Uvarint reads an unsigned varint (0 after an error).
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.pos += n
	return x
}

// Int reads a non-negative integer, rejecting values that cannot index or
// size anything in the payload (an overflow guard for corrupted input).
func (r *Reader) Int() int {
	x := r.Uvarint()
	if x > uint64(len(r.data))+uint64(len(r.strs)) {
		r.fail("implausible length")
		return 0
	}
	return int(x)
}

// Count reads the element count of a sequence whose elements each take at
// least minSize payload bytes, rejecting a count the rest of the payload
// cannot hold, so that a corrupt count never sizes an allocation beyond the
// payload. minSize must be at least 1 and at most the smallest encoding of
// one element.
func (r *Reader) Count(minSize int) int {
	n := r.Int()
	if n > (len(r.data)-r.pos)/minSize {
		r.fail("count overruns payload")
		return 0
	}
	return n
}

// Bool reads a boolean byte.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.pos >= len(r.data) {
		r.fail("truncated bool")
		return false
	}
	b := r.data[r.pos]
	r.pos++
	return b != 0
}

// Str reads an interned string reference.
func (r *Reader) Str() string {
	i := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if i >= uint64(len(r.strs)) {
		r.fail("string index out of range")
		return ""
	}
	return r.strs[i]
}

// StrSlice reads a length-prefixed sequence of interned strings (nil when
// empty, matching how the analysis code builds such slices).
func (r *Reader) StrSlice() []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.Str())
	}
	return out
}

// Blob reads a length-prefixed opaque byte string. The result aliases the
// reader's backing slice; callers own that slice once decoding finishes.
func (r *Reader) Blob() []byte {
	n := r.Int()
	if r.err != nil {
		return nil
	}
	if r.pos+n > len(r.data) {
		r.fail("truncated blob")
		return nil
	}
	b := r.data[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return b
}

// Done reports whether the whole payload was consumed without error; codecs
// call it last to catch trailing garbage.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.data) {
		return fmt.Errorf("binc: %d trailing bytes", len(r.data)-r.pos)
	}
	return nil
}
