package binrec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

var errBad = errors.New("test: bad record")

// TestReaderRoundTrip: each read returns what the matching append wrote,
// the bytes alias the record, and End is clean on an exactly consumed one.
func TestReaderRoundTrip(t *testing.T) {
	b := binary.AppendUvarint(nil, 300)
	b = binary.AppendVarint(b, math.MinInt64)
	b = binary.AppendUvarint(b, 7)
	b = append(b, 0xab)
	b = binary.BigEndian.AppendUint64(b, 1<<63)
	b = AppendBytes(b, "héllo\xff")
	b = AppendBytes(b, []byte(nil))
	r := Reader{B: b, Bad: errBad}
	if v := r.Uvarint("u"); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint("v"); v != math.MinInt64 {
		t.Errorf("Varint = %d", v)
	}
	if v := r.Count("c"); v != 7 {
		t.Errorf("Count = %d", v)
	}
	if v := r.Byte("b"); v != 0xab {
		t.Errorf("Byte = %x", v)
	}
	if v := r.Int64BE("i"); v != math.MinInt64 {
		t.Errorf("Int64BE = %d", v)
	}
	if v := r.Bytes("s"); string(v) != "héllo\xff" || &v[0] != &b[len(b)-len(v)-1] {
		t.Errorf("Bytes = %q, or not an alias of the record", v)
	}
	if v := r.Bytes("empty"); v != nil {
		t.Errorf("empty Bytes = %v, want nil", v)
	}
	if err := r.End(); err != nil {
		t.Errorf("End = %v", err)
	}
}

// TestReaderRejects: every non-canonical or short input fails with an error
// wrapping Bad; the first failure sticks and later reads return zero.
func TestReaderRejects(t *testing.T) {
	overInt := binary.AppendUvarint(nil, math.MaxInt+1)
	for name, c := range map[string]struct {
		in   []byte
		read func(r *Reader)
	}{
		"empty uvarint":     {nil, func(r *Reader) { r.Uvarint("x") }},
		"truncated uvarint": {[]byte{0x80}, func(r *Reader) { r.Uvarint("x") }},
		"padded uvarint":    {[]byte{0x80, 0x00}, func(r *Reader) { r.Uvarint("x") }},
		"padded varint":     {[]byte{0x81, 0x00}, func(r *Reader) { r.Varint("x") }},
		"uvarint overflow":  {append(bytes.Repeat([]byte{0xff}, 10), 1), func(r *Reader) { r.Uvarint("x") }},
		"count over MaxInt": {overInt, func(r *Reader) { r.Count("x") }},
		"no byte":           {nil, func(r *Reader) { r.Byte("x") }},
		"short int64":       {make([]byte, 7), func(r *Reader) { r.Int64BE("x") }},
		"bytes past end":    {[]byte{3, 'a', 'b'}, func(r *Reader) { r.Bytes("x") }},
		"trailing bytes":    {[]byte{1, 2}, func(r *Reader) { r.Byte("x") }},
		"owner's rule":      {[]byte{1}, func(r *Reader) { r.Byte("x"); r.Fail("rule") }},
	} {
		r := Reader{B: c.in, Bad: errBad}
		c.read(&r)
		err := r.End()
		if !errors.Is(err, errBad) {
			t.Errorf("%s: err = %v, want one wrapping Bad", name, err)
			continue
		}
		r.B = []byte{5, 5, 5, 5, 5, 5, 5, 5, 5}
		if r.Uvarint("y") != 0 || r.Byte("y") != 0 || r.Bytes("y") != nil || r.Int64BE("y") != 0 {
			t.Errorf("%s: a failed reader still reads", name)
		}
		r.Fail("later")
		if r.End() != err {
			t.Errorf("%s: first failure did not stick: %v", name, r.End())
		}
	}
}
