// Package binrec holds the strict, bounds-checked primitives the repo's binary
// formats are read and written with: the durable journal record, the cqrs
// journal payload and the cluster replication record. Each format owns its
// grammar and its typed error; what they share is that a reader accepts
// exactly what the appenders emit — minimal varints only, no length past the
// end, no trailing bytes — so for every format decode∘encode is the identity
// in both directions.
package binrec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendBytes appends b length-prefixed: uvarint len, then the bytes.
func AppendBytes[T ~string | ~[]byte](dst []byte, b T) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
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
