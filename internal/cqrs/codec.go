package cqrs

// JSON rendering of journal events, the one place JSON is still owed:
// /v2/hosts/{ip}/history. The journal stores the binary payloads of
// payload.go; the append-style writers below render a parsed payload exactly
// as encoding/json renders the entity it encodes — the same HTML escaping,
// sorted map keys, RFC3339Nano timestamps and omitempty semantics, and U+FFFD
// for bytes that are not UTF-8 — straight from the views, without building
// the entity or allocating.
//
// Correctness is held by a randomized differential test against
// encoding/json (codec_test.go) and by the serve tier's committed
// conformance goldens.

import (
	"fmt"
	"strconv"
	"time"
	"unicode/utf8"

	"censysmap/internal/binrec"
	"censysmap/internal/journal"
)

// jsonSafe marks ASCII bytes encoding/json emits verbatim inside strings
// (with HTML escaping on, the Marshal default): everything at or above 0x20
// except '"', '\\', '<', '>', '&'.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json
// (with its default HTML escaping) would render it.
func appendJSONString(dst, s []byte) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Control bytes below 0x20 (minus \n\r\t) and <, >, &.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRune(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		// U+2028 and U+2029 are escaped for JS embedding parity.
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONTime appends t as encoding/json renders a time.Time: a quoted
// RFC3339 string with nanoseconds when present (trailing zeros stripped).
func appendJSONTime(dst []byte, t time.Time) []byte {
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"')
}

// appendServiceJSON appends the encoding/json rendering of the Service record
// a view encodes.
func appendServiceJSON(dst []byte, v *serviceView) []byte {
	str := func(name string, b []byte) {
		dst = append(dst, name...)
		dst = appendJSONString(dst, b)
	}
	optional := func(name string, b []byte) {
		if len(b) > 0 {
			str(name, b)
		}
	}
	dst = append(dst, `{"port":`...)
	dst = strconv.AppendUint(dst, uint64(v.port), 10)
	str(`,"transport":`, v.transport)
	str(`,"protocol":`, v.protocol)
	if v.flags&flagTLS != 0 {
		dst = append(dst, `,"tls":true`...)
	}
	optional(`,"cert_sha256":`, v.cert)
	optional(`,"banner":`, v.banner)
	if v.nattr > 0 {
		dst = append(dst, `,"attributes":{`...)
		r := binrec.Reader{B: v.attrs}
		for i := 0; i < v.nattr; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			k, val := attr(&r)
			dst = appendJSONString(dst, k)
			dst = append(dst, ':')
			dst = appendJSONString(dst, val)
		}
		dst = append(dst, '}')
	}
	optional(`,"method":`, v.method)
	if v.flags&flagVerified != 0 {
		dst = append(dst, `,"verified":true`...)
	}
	dst = append(dst, `,"first_seen":`...)
	dst = appendJSONTime(dst, v.first)
	dst = append(dst, `,"last_seen":`...)
	dst = appendJSONTime(dst, v.last)
	if v.flags&flagPending != 0 {
		dst = append(dst, `,"pending_removal_since":`...)
		dst = appendJSONTime(dst, v.pending)
	}
	optional(`,"source_pop":`, v.pop)
	return append(dst, '}')
}

// appendPayloadJSON appends the JSON body of one event's payload: what
// encoding/json makes of {"service": Service} for found/changed/restored, of
// {"port","transport","since"} for pending/removed, and of the entity.Host
// for a snapshot.
func appendPayloadJSON(dst []byte, kind string, payload []byte) ([]byte, error) {
	r := binrec.Reader{B: payload, Bad: ErrBadPayload}
	switch kind {
	case KindServiceFound, KindServiceChanged, KindServiceRestored:
		v := readService(&r)
		if err := r.End(); err != nil {
			return dst, err
		}
		dst = append(dst, `{"service":`...)
		dst = appendServiceJSON(dst, &v)
		return append(dst, '}'), nil
	case KindServicePending, KindServiceRemoved:
		port, transport, since := readKey(&r)
		if err := r.End(); err != nil {
			return dst, err
		}
		dst = append(dst, `{"port":`...)
		dst = strconv.AppendUint(dst, uint64(port), 10)
		dst = append(dst, `,"transport":`...)
		dst = appendJSONString(dst, transport)
		dst = append(dst, `,"since":`...)
		dst = appendJSONTime(dst, since)
		return append(dst, '}'), nil
	case journal.SnapshotKind:
		s := openSnapshot(payload)
		dst = append(dst, `{"ip":"`...)
		if s.ip.IsValid() {
			// Address text is escape-free ASCII; the zero Addr marshals to
			// the empty string, not String()'s "invalid IP".
			dst = s.ip.AppendTo(dst)
		}
		dst = append(dst, '"')
		first := true
		for key, v := range s.services() {
			if first {
				dst, first = append(dst, `,"services":{`...), false
			} else {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, key)
			dst = append(dst, ':')
			dst = appendServiceJSON(dst, v)
		}
		if s.n > 0 {
			dst = append(dst, '}')
		}
		dst = append(dst, `,"last_updated":`...)
		dst = appendJSONTime(dst, s.updated)
		return append(dst, '}'), s.r.End()
	}
	return dst, fmt.Errorf("%w: no grammar for kind %q", ErrBadPayload, kind)
}

// AppendEventJSON appends one journaled event as the history API shows it:
//
//	{"seq":N,"time":"<RFC3339Nano>","kind":"...","body":{...}}
//
// with body the payload rendered as JSON, left out when the payload is empty.
// On a malformed payload dst comes back unextended, with the error.
func AppendEventJSON(dst []byte, ev journal.Event) ([]byte, error) {
	out := append(dst, `{"seq":`...)
	out = strconv.AppendUint(out, ev.Seq, 10)
	out = append(out, `,"time":`...)
	out = appendJSONTime(out, ev.Time)
	out = append(out, `,"kind":`...)
	out = appendJSONString(out, []byte(ev.Kind))
	if len(ev.Payload) > 0 {
		out = append(out, `,"body":`...)
		var err error
		if out, err = appendPayloadJSON(out, ev.Kind, ev.Payload); err != nil {
			return dst, fmt.Errorf("cqrs: render %s seq %d: %w", ev.Entity, ev.Seq, err)
		}
	}
	return append(out, '}'), nil
}
