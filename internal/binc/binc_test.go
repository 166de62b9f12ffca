package binc

import (
	"bytes"
	"reflect"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Uvarint(0)
	w.Uvarint(1 << 40)
	// Int is a count/length codec: values are bounded by the payload size
	// (the reader rejects anything that could not size a real structure).
	w.Int(12)
	w.Int(-7) // negatives clamp to zero by contract
	w.Bool(true)
	w.Bool(false)
	w.Str("hello")
	w.Str("")
	w.Str("hello") // interned: same index as the first
	w.StrSlice([]string{"a", "b", "a"})
	w.StrSlice(nil)
	w.Blob([]byte{1, 2, 3})
	w.Blob(nil)
	data := w.Bytes()

	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d, want 0", got)
	}
	if got := r.Uvarint(); got != 1<<40 {
		t.Errorf("Uvarint = %d, want 1<<40", got)
	}
	if got := r.Int(); got != 12 {
		t.Errorf("Int = %d, want 12", got)
	}
	if got := r.Int(); got != 0 {
		t.Errorf("clamped Int = %d, want 0", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := r.Str(); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	if got := r.Str(); got != "" {
		t.Errorf("empty Str = %q", got)
	}
	if got := r.Str(); got != "hello" {
		t.Errorf("interned Str = %q", got)
	}
	if got := r.StrSlice(); !reflect.DeepEqual(got, []string{"a", "b", "a"}) {
		t.Errorf("StrSlice = %v", got)
	}
	if got := r.StrSlice(); got != nil {
		t.Errorf("nil StrSlice = %v, want nil", got)
	}
	if got := r.Blob(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Blob = %v", got)
	}
	if got := r.Blob(); len(got) != 0 {
		t.Errorf("empty Blob = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done: %v", err)
	}
}

// TestInterning checks that a repeated string is stored once: the encoding of
// many copies is barely larger than the encoding of one.
func TestInterning(t *testing.T) {
	one := NewWriter()
	one.Str("com.example.SomeLongClassName")
	many := NewWriter()
	for i := 0; i < 1000; i++ {
		many.Str("com.example.SomeLongClassName")
	}
	if got, limit := len(many.Bytes()), len(one.Bytes())+1000+16; got > limit {
		t.Errorf("1000 interned copies take %d bytes, want <= %d", got, limit)
	}
}

// TestDoneTrailing checks that unread trailing bytes are an error: a decoder
// that finishes early on corrupt input must not silently succeed.
func TestDoneTrailing(t *testing.T) {
	w := NewWriter()
	w.Int(1)
	w.Int(2)
	data := w.Bytes()
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	r.Int()
	if err := r.Done(); err == nil {
		t.Error("Done with trailing bytes: want error")
	}
}

// TestCorruptInputsNeverPanic feeds truncations and bit-flips of a valid
// encoding to the reader; every outcome must be an error or a zero value,
// never a panic or an out-of-range read.
func TestCorruptInputsNeverPanic(t *testing.T) {
	w := NewWriter()
	w.Str("alpha")
	w.StrSlice([]string{"beta", "gamma"})
	w.Int(12345)
	w.Blob([]byte("payload"))
	valid := w.Bytes()

	check := func(data []byte) {
		r, err := NewReader(data)
		if err != nil {
			return
		}
		r.Str()
		r.StrSlice()
		r.Int()
		r.Blob()
		r.Done()
	}
	for cut := 0; cut < len(valid); cut++ {
		check(valid[:cut])
	}
	for i := 0; i < len(valid); i++ {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		check(mut)
	}
}

// TestReaderErrSticky checks that the first failure poisons every later read.
func TestReaderErrSticky(t *testing.T) {
	w := NewWriter()
	w.Int(9)
	data := w.Bytes()
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	r.Int()
	r.Int() // past the end: sets the error
	if r.Err() == nil {
		t.Fatal("read past end: want error")
	}
	if got := r.Int(); got != 0 {
		t.Errorf("read after error = %d, want 0", got)
	}
	if r.Str() != "" {
		t.Error("Str after error: want empty")
	}
}
