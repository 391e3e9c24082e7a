// Package binrec holds the strict, bounds-checked primitives the repo's binary
// formats are read and written with: the durable journal record, the cqrs
// journal payload, the cluster replication record and the checkpoint's bulk
// sections. Each format owns its grammar and its typed error; what they share
// is that a reader accepts exactly what the appenders emit — minimal varints
// only, no length past the end, no trailing bytes — so for every format
// decode∘encode is the identity in both directions.
package binrec

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// AppendBytes appends b length-prefixed: uvarint len, then the bytes.
func AppendBytes[T ~string | ~[]byte](dst []byte, b T) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendTime appends t as its Unix seconds less base (a zigzag varint) and its
// nanoseconds (uvarint). Base 0 writes the absolute time; a run of times
// passes the previous time's seconds, so each costs the varint of a delta.
// Seconds rather than UnixNano, so that time.Time{} and every other time
// survive.
func AppendTime(dst []byte, t time.Time, base int64) []byte {
	dst = binary.AppendVarint(dst, t.Unix()-base)
	return binary.AppendUvarint(dst, uint64(t.Nanosecond()))
}

// AppendNext appends v, the successor of prev in a strictly ascending run, as
// the gap v-prev-1 (uvarint). A run starts from prev = -1, so its first value
// is written as itself and no gap is ever negative.
func AppendNext(dst []byte, prev, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v-prev-1))
}

// AppendFront appends s front-coded against prev: the length of their longest
// common prefix (uvarint), then the rest of s length-prefixed.
func AppendFront(dst []byte, prev, s string) []byte {
	n := 0
	for n < len(prev) && n < len(s) && prev[n] == s[n] {
		n++
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	return AppendBytes(dst, s[n:])
}

// Reader is a cursor over one record. The first failure sticks — Err wraps
// Bad, the owning format's sentinel — and every later read returns zero, so a
// decoder reads all its fields and checks once, with End.
type Reader struct {
	B   []byte // unread remainder
	Bad error
	Err error
}

// Fail records a failure the grammar's owner detected (a range or ordering
// rule); like every failure, only the first is kept.
func (r *Reader) Fail(what string) {
	if r.Err == nil {
		r.Err = fmt.Errorf("%w: %s", r.Bad, what)
	}
}

// Uvarint reads an unsigned varint in its minimal encoding.
func (r *Reader) Uvarint(what string) uint64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.B)
	// n <= 0 is truncation or 64-bit overflow; a zero final byte is a padded
	// encoding AppendUvarint never emits.
	if n <= 0 || (n > 1 && r.B[n-1] == 0) {
		r.Fail(what + ": bad varint")
		return 0
	}
	r.B = r.B[n:]
	return v
}

// Varint reads a signed (zigzag) varint, the form binary.AppendVarint emits.
// The zigzag form is minimal exactly when the unsigned one is.
func (r *Reader) Varint(what string) int64 {
	zz := r.Uvarint(what)
	return int64(zz>>1) ^ -int64(zz&1)
}

// Count reads a uvarint that must fit a non-negative int.
func (r *Reader) Count(what string) int {
	v := r.Uvarint(what)
	if v > math.MaxInt {
		r.Fail(what + ": out of range")
		return 0
	}
	return int(v)
}

// Items reads the length of a list whose every item takes at least one byte:
// a length past the bytes left fails, so a reader can size the list up front.
func (r *Reader) Items(what string) int {
	n := r.Count(what)
	if n > len(r.B) {
		r.Fail(what + ": more items than bytes")
		return 0
	}
	return n
}

// Next reads what AppendNext wrote after prev; a value above max fails.
func (r *Reader) Next(what string, prev, max int64) int64 {
	gap := r.Uvarint(what)
	if r.Err == nil && (prev >= max || gap > uint64(max-prev-1)) {
		r.Fail(what + ": out of range")
	}
	if r.Err != nil {
		return 0
	}
	return prev + 1 + int64(gap)
}

// Time reads a time AppendTime wrote against base, as a UTC instant.
func (r *Reader) Time(what string, base int64) time.Time {
	sec, nsec := base+r.Varint(what), r.Uvarint(what)
	if nsec >= 1e9 {
		r.Fail(what + ": nanoseconds out of range")
	}
	if r.Err != nil {
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// Front reads a string AppendFront wrote against prev. The prefix must be the
// longest common one, so each string has one encoding; a string that is all
// prefix shares prev's bytes.
func (r *Reader) Front(what, prev string) string {
	n := r.Count(what)
	rest := r.Bytes(what)
	if r.Err == nil && (n > len(prev) || len(rest) > 0 && n < len(prev) && rest[0] == prev[n]) {
		r.Fail(what + ": prefix is not the longest common one")
	}
	if r.Err != nil {
		return ""
	}
	if len(rest) == 0 {
		return prev[:n]
	}
	return prev[:n] + string(rest)
}

// Byte reads one byte.
func (r *Reader) Byte(what string) byte {
	if r.Err == nil && len(r.B) < 1 {
		r.Fail(what + ": truncated")
	}
	if r.Err != nil {
		return 0
	}
	v := r.B[0]
	r.B = r.B[1:]
	return v
}

// Int64BE reads a fixed 8-byte big-endian integer.
func (r *Reader) Int64BE(what string) int64 {
	if r.Err == nil && len(r.B) < 8 {
		r.Fail(what + ": truncated")
	}
	if r.Err != nil {
		return 0
	}
	v := binary.BigEndian.Uint64(r.B)
	r.B = r.B[8:]
	return int64(v)
}

// Bytes reads a length-prefixed byte string. The result aliases the record;
// a zero length reads as nil, so an absent value round-trips as absent.
func (r *Reader) Bytes(what string) []byte {
	n := r.Uvarint(what)
	if r.Err != nil {
		return nil
	}
	if n > uint64(len(r.B)) {
		r.Fail(what + ": length past end of record")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := r.B[:n:n]
	r.B = r.B[n:]
	return out
}

// End fails the record if bytes remain and returns the first failure, if any.
func (r *Reader) End() error {
	if r.Err == nil && len(r.B) != 0 {
		r.Fail(fmt.Sprintf("%d trailing bytes", len(r.B)))
	}
	return r.Err
}

// ErrSection marks a checkpoint section value that is not a well-formed
// binary section.
var ErrSection = errors.New("malformed checkpoint section")

// A binary section travels inside the JSON checkpoint as one JSON string: the
// standard, padded base64 of its body, which has nothing JSON escapes.
var section = base64.StdEncoding.Strict()

// AppendSection appends body as the JSON string a binary checkpoint section's
// value is.
func AppendSection(dst, body []byte) []byte {
	dst = append(dst, '"')
	dst = section.AppendEncode(dst, body)
	return append(dst, '"')
}

// DecodeSection parses a section value AppendSection wrote and hands read a
// Reader over its body, which read must consume exactly. Any other JSON value
// — the array or object a checkpoint from before binary sections holds, null,
// an escaped or non-canonical string — fails, and every failure names the
// section.
func DecodeSection(name string, data []byte, read func(r *Reader)) error {
	bad := fmt.Errorf("%w %q", ErrSection, name)
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		shape := "not a string"
		if len(data) > 0 && data[0] == '[' {
			shape = "an array"
		} else if len(data) > 0 && data[0] == '{' {
			shape = "an object"
		}
		return fmt.Errorf("%w: %s where a base64 string belongs (an older checkpoint's shape is refused)", bad, shape)
	}
	// Decode skips newlines; the length check refuses them with every other
	// byte the encoder would not have written.
	src := data[1 : len(data)-1]
	body := make([]byte, section.DecodedLen(len(src)))
	n, err := section.Decode(body, src)
	if err != nil || section.EncodedLen(n) != len(src) {
		return fmt.Errorf("%w: not canonical base64", bad)
	}
	r := Reader{B: body[:n], Bad: bad}
	read(&r)
	return r.End()
}
