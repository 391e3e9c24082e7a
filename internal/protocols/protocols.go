// Package protocols implements the L7 protocol scanners used during service
// interrogation, together with matching server-side simulators and banner
// fingerprint matchers.
//
// Every protocol is implemented three ways:
//
//   - Scan: the client side — drives the protocol handshake against any
//     io.ReadWriter and extracts a structured, configuration-stable Result.
//     Every connection is a SessionConn, the synthetic Internet's in-memory
//     link to a server Session.
//   - Session: the server side — a deterministic state machine that speaks
//     the protocol for a configured service Spec. Sessions back the
//     synthetic Internet.
//   - Fingerprint: a matcher that recognises the protocol from unsolicited
//     server output or from the response to a generic trigger, which is the
//     basis of LZR-style protocol detection on unexpected ports.
//
// A service is only ever labeled with a protocol if the full Scan completes
// (Result.Complete); this "handshake-verified" rule is what separates the
// Censys labeling policy from keyword/port heuristics in the evaluation.
package protocols

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"unicode/utf8"

	"censysmap/internal/entity"
)

// ErrTimeout is returned by Conn reads when the peer stays silent past the
// read deadline. Scanners treat it as "no data", not as a broken connection.
var ErrTimeout = errors.New("protocols: read timed out")

// ErrUnexpected is returned by scanners when the peer speaks, but not this
// protocol.
var ErrUnexpected = errors.New("protocols: unexpected protocol data")

// Result is the outcome of one protocol scan: the structured, non-ephemeral
// subset of what the handshake revealed.
type Result struct {
	// Protocol is the scanner's protocol name (registry key).
	Protocol string
	// Complete reports that the protocol handshake fully completed; only
	// complete results may label a service.
	Complete bool
	// Banner is the normalized protocol banner/greeting, truncated.
	Banner string
	// Attributes holds protocol-specific fields, e.g. "http.title".
	Attributes map[string]string
	// TLS reports the scan ran inside a TLS session.
	TLS bool
	// CertSHA256 is the fingerprint of the certificate presented, if any.
	CertSHA256 string
	// CertDER is the certificate blob the handshake returned, if any.
	CertDER []byte
}

// attr sets an attribute, allocating the map lazily and dropping empties.
func (r *Result) attr(key, value string) {
	if value == "" {
		return
	}
	if r.Attributes == nil {
		r.Attributes = make(map[string]string)
	}
	r.Attributes[key] = value
}

// Spec configures a simulated server: which protocol it speaks and the
// configuration knobs that show up in banners and handshake fields.
type Spec struct {
	// Protocol is the registry name, e.g. "HTTP".
	Protocol string
	// Vendor/Product/Version feed banners and identity fields.
	Vendor  string
	Product string
	Version string
	// Title is the page/device title for protocols that expose one.
	Title string
	// TLS wraps the session in a TLS-lite handshake presenting CertDER.
	TLS bool
	// CertDER is the encoded certificate blob presented in TLS-lite.
	CertDER []byte
	// CertSHA256 is the fingerprint of CertDER.
	CertSHA256 string
	// Extra carries per-protocol extension fields.
	Extra map[string]string
}

// extra returns an Extra field or a default.
func (s Spec) extra(key, def string) string {
	if v, ok := s.Extra[key]; ok {
		return v
	}
	return def
}

// Session is the server side of one connection: a deterministic state
// machine. Greeting returns the bytes the server sends unprompted on connect
// (nil for client-first protocols). Respond consumes one inbound message and
// returns the reply; closed reports the server has closed the connection.
type Session interface {
	Greeting() []byte
	Respond(req []byte) (resp []byte, closed bool)
}

// Protocol is one registry entry.
type Protocol struct {
	// Name is the canonical protocol label, e.g. "HTTP", "MODBUS".
	Name string
	// Transport is the L4 transport the protocol runs over.
	Transport entity.Transport
	// DefaultPorts are the IANA-assigned/conventional ports.
	DefaultPorts []uint16
	// ICS marks industrial control system protocols (drives the §6.3
	// analysis and restricted-access data tiers).
	ICS bool
	// Scan drives the client handshake.
	Scan func(rw io.ReadWriter) (*Result, error)
	// NewSession builds the server state machine for a Spec.
	NewSession func(Spec) Session
	// Fingerprint recognises this protocol from raw server bytes.
	Fingerprint func(data []byte) bool

	// firstProbe is Scan's first write (nil for server-first protocols),
	// captured once by register; FirstProbe hands out copies.
	firstProbe []byte
}

// The registry is filled by package init and read-only after it: registry
// indexes it by name, and all holds it sorted by name.
var (
	registry = map[string]*Protocol{}
	all      []*Protocol
)

// register adds a protocol at package init; duplicate names panic.
func register(p *Protocol) {
	if _, dup := registry[p.Name]; dup {
		panic(fmt.Sprintf("protocols: duplicate registration of %q", p.Name))
	}
	p.firstProbe = captureFirst(p)
	registry[p.Name] = p
	i, _ := slices.BinarySearchFunc(all, p.Name, func(q *Protocol, name string) int {
		return strings.Compare(q.Name, name)
	})
	all = slices.Insert(all, i, p)
}

// Lookup returns the protocol registered under name, or nil.
func Lookup(name string) *Protocol { return registry[name] }

// All returns every registered protocol sorted by name. The slice is shared;
// callers must not modify it.
func All() []*Protocol { return all }

// ICSProtocols returns the registered industrial control system protocols.
func ICSProtocols() []*Protocol {
	var out []*Protocol
	for _, p := range All() {
		if p.ICS {
			out = append(out, p)
		}
	}
	return out
}

// ForPort returns the transport's protocols that list port as a default,
// sorted by name.
func ForPort(port uint16, transport entity.Transport) []*Protocol {
	var out []*Protocol
	for _, p := range All() {
		if p.Transport != transport {
			continue
		}
		for _, dp := range p.DefaultPorts {
			if dp == port {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

// Identify runs every fingerprint matcher against data and returns the name
// of the first protocol that matches, or "".
func Identify(data []byte) string {
	if len(data) == 0 {
		return ""
	}
	for _, p := range All() {
		if p.Fingerprint != nil && p.Fingerprint(data) {
			return p.Name
		}
	}
	return ""
}

// maxBanner caps stored banner length; configuration-stable prefixes are
// what matter, not full payloads (ephemeral data is explicitly not stored).
const maxBanner = 256

// truncate clips s to the banner cap at a rune-safe boundary: a rune that
// straddles the cap is dropped whole.
func truncate(s string) string {
	if len(s) <= maxBanner {
		return s
	}
	i := maxBanner
	for i > maxBanner-utf8.UTFMax+1 && !utf8.RuneStart(s[i]) {
		i--
	}
	return s[:i]
}

// firstLine returns the first CRLF- or LF-terminated line of s, trimmed.
func firstLine(s string) string {
	if i := strings.IndexAny(s, "\r\n"); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSpace(s)
}

// maxRead is the most one read hands a scanner.
const maxRead = 4096

// readScratch pools the arrays reads land in. A read copies what arrived out
// of its array before putting it back, so no caller ever holds pooled bytes.
var readScratch = sync.Pool{New: func() any { return new([maxRead]byte) }}

// ReadUpTo reads once from r, at most limit (≤ maxRead) bytes, and returns
// exactly the bytes that arrived in a fresh slice (cap == len) the caller
// owns. Silence allocates nothing and yields ErrTimeout; a nil error with an
// empty slice never occurs.
func ReadUpTo(r io.Reader, limit int) ([]byte, error) {
	scratch := readScratch.Get().(*[maxRead]byte)
	defer readScratch.Put(scratch)
	n, err := r.Read(scratch[:limit])
	if n > 0 {
		out := make([]byte, n)
		copy(out, scratch[:n])
		return out, nil
	}
	if err == nil {
		err = ErrTimeout
	}
	return nil, err
}

// readSome reads one message's worth of bytes from rw (see ReadUpTo).
func readSome(rw io.Reader) ([]byte, error) { return ReadUpTo(rw, maxRead) }
