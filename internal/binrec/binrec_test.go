package binrec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
	"unsafe"
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

// TestRunRoundTrip: the run primitives — delta times, ascending gaps,
// front-coded strings, item counts — read back what they wrote.
func TestRunRoundTrip(t *testing.T) {
	at := time.Date(2024, 8, 20, 5, 0, 0, 7, time.UTC)
	b := AppendTime(nil, time.Time{}, 0)
	b = AppendTime(b, at, at.Unix()-3600)
	b = AppendNext(b, -1, 0)
	b = AppendNext(b, 0, math.MaxUint16)
	b = AppendFront(b, "", "10.0.0.1")
	b = AppendFront(b, "10.0.0.1", "10.0.0.12")
	b = AppendFront(b, "10.0.0.12", "10.0.0.1")
	b = binary.AppendUvarint(b, 1)
	b = append(b, 0)
	r := Reader{B: b, Bad: errBad}
	if v := r.Time("zero", 0); !v.IsZero() {
		t.Errorf("zero Time = %v", v)
	}
	if v := r.Time("at", at.Unix()-3600); v != at {
		t.Errorf("Time = %v, want %v", v, at)
	}
	if a, b := r.Next("first", -1, math.MaxUint16), r.Next("last", 0, math.MaxUint16); a != 0 || b != math.MaxUint16 {
		t.Errorf("Next = %d, %d", a, b)
	}
	prev := ""
	for _, want := range []string{"10.0.0.1", "10.0.0.12", "10.0.0.1"} {
		if prev = r.Front("s", prev); prev != want {
			t.Errorf("Front = %q, want %q", prev, want)
		}
	}
	if n := r.Items("items"); n != 1 || r.Byte("item") != 0 {
		t.Errorf("Items = %d", n)
	}
	if err := r.End(); err != nil {
		t.Errorf("End = %v", err)
	}
}

// TestFrontInterned: FrontInterned reads what Front reads, and hands out one
// string per distinct value — the first read of a value allocates it, every
// later one returns that string.
func TestFrontInterned(t *testing.T) {
	vals := []string{"443/tcp", "80/tcp", "443/tcp", "8443/tcp", "80/tcp", "80/tcp", "161/udp", "443/tcp"}
	var b []byte
	prev := ""
	for _, v := range vals {
		b, prev = AppendFront(b, prev, v), v
	}
	seen := map[string]string{}
	first := map[string]string{}
	r := Reader{B: b, Bad: errBad}
	prev = ""
	for i, want := range vals {
		got := r.FrontInterned("k", prev, seen)
		if got != want {
			t.Fatalf("value %d = %q, want %q", i, got, want)
		}
		if f, ok := first[got]; ok && unsafe.StringData(f) != unsafe.StringData(got) {
			t.Errorf("value %d (%q) is a fresh copy, not the interned string", i, got)
		}
		first[got], prev = got, got
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Errorf("interned %d strings, want 4", len(seen))
	}
	allocs := testing.AllocsPerRun(10, func() {
		r := Reader{B: b, Bad: errBad}
		prev := ""
		for range vals {
			prev = r.FrontInterned("k", prev, seen)
		}
	})
	if allocs != 0 {
		t.Errorf("re-reading interned values: %v allocs, want 0", allocs)
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
		"empty uvarint":      {nil, func(r *Reader) { r.Uvarint("x") }},
		"truncated uvarint":  {[]byte{0x80}, func(r *Reader) { r.Uvarint("x") }},
		"padded uvarint":     {[]byte{0x80, 0x00}, func(r *Reader) { r.Uvarint("x") }},
		"padded varint":      {[]byte{0x81, 0x00}, func(r *Reader) { r.Varint("x") }},
		"uvarint overflow":   {append(bytes.Repeat([]byte{0xff}, 10), 1), func(r *Reader) { r.Uvarint("x") }},
		"count over MaxInt":  {overInt, func(r *Reader) { r.Count("x") }},
		"no byte":            {nil, func(r *Reader) { r.Byte("x") }},
		"short int64":        {make([]byte, 7), func(r *Reader) { r.Int64BE("x") }},
		"bytes past end":     {[]byte{3, 'a', 'b'}, func(r *Reader) { r.Bytes("x") }},
		"trailing bytes":     {[]byte{1, 2}, func(r *Reader) { r.Byte("x") }},
		"owner's rule":       {[]byte{1}, func(r *Reader) { r.Byte("x"); r.Fail("rule") }},
		"nanoseconds ≥ 1e9":  {binary.AppendUvarint([]byte{0}, 1e9), func(r *Reader) { r.Time("x", 0) }},
		"next past max":      {[]byte{11}, func(r *Reader) { r.Next("x", -1, 10) }},
		"next after max":     {[]byte{0}, func(r *Reader) { r.Next("x", 10, 10) }},
		"prefix past prev":   {[]byte{4, 0}, func(r *Reader) { r.Front("x", "abc") }},
		"prefix too short":   {[]byte{1, 2, 'b', 'd'}, func(r *Reader) { r.Front("x", "abc") }},
		"interned past prev": {[]byte{4, 0}, func(r *Reader) { r.FrontInterned("x", "abc", map[string]string{}) }},
		"interned too short": {[]byte{1, 2, 'b', 'd'}, func(r *Reader) { r.FrontInterned("x", "abc", map[string]string{}) }},
		"items past bytes":   {[]byte{2, 0}, func(r *Reader) { r.Items("x") }},
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

// TestSection: a section value is the base64 JSON string of its body and
// nothing else — an older checkpoint's array or object, null, and a string
// that is not the encoder's own base64 fail, naming the section.
func TestSection(t *testing.T) {
	body := []byte{3, 1, 2, 3}
	v := AppendSection(nil, body)
	if string(v) != `"AwECAw=="` {
		t.Fatalf("AppendSection = %s", v)
	}
	var got []byte
	if err := DecodeSection("s", v, func(r *Reader) { got = r.Bytes("b") }); err != nil || !bytes.Equal(got, body[1:]) {
		t.Fatalf("DecodeSection = %v, %v", got, err)
	}
	for _, bad := range []string{`[{"a":1}]`, `{"a":1}`, `null`, `""x`, `"AwECAw="`, `"AwECAx=="`,
		`"AwEC\nAw=="`, "\"AwEC\nAw==\"", `"AwEC\u0041w=="`, `"AwECAw=="x`, `"AwECAwA="`, ``} {
		err := DecodeSection("sect", []byte(bad), func(r *Reader) { r.Bytes("b") })
		if !errors.Is(err, ErrSection) || !strings.Contains(err.Error(), `"sect"`) {
			t.Errorf("%s: err = %v, want ErrSection naming the section", bad, err)
		}
	}
}
