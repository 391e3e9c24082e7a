package protocols

import (
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// scriptConn replays a server reply split over reads: each Read returns the
// next chunk (the rest of it on the next Read if p is short), an empty chunk
// is a silent read, and a spent script times out. Writes are swallowed.
type scriptConn struct{ reads [][]byte }

func script(chunks ...[]byte) *scriptConn { return &scriptConn{reads: slices.Clone(chunks)} }

func (c *scriptConn) Read(p []byte) (int, error) {
	if len(c.reads) == 0 {
		return 0, ErrTimeout
	}
	n := copy(p, c.reads[0])
	if n == len(c.reads[0]) {
		c.reads = c.reads[1:]
	} else {
		c.reads[0] = c.reads[0][n:]
	}
	if n == 0 {
		return 0, ErrTimeout
	}
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error) { return len(p), nil }

// TestShortRepliesStayInsideTheReply holds five scanners to the bytes that
// arrived. Each row is one reply split across reads that once made its
// scanner slice past the end of a read: the first four panicked, and VNC
// recorded security types from a read buffer's spare capacity.
func TestShortRepliesStayInsideTheReply(t *testing.T) {
	rows := []struct {
		name   string
		scan   func(io.ReadWriter) (*Result, error)
		reads  []string
		err    error  // the error the scan must return
		noAttr string // an attribute the result must not carry
	}{
		{"S7", ScanS7, []string{"\x030000\xd0", "2"}, ErrUnexpected, "s7.module"},
		{"GE_SRTP", ScanGESRTP, []string{"SRTP"}, ErrUnexpected, "ge_srtp.plc_type"},
		{"PCWORX", ScanPCWorx, []string{"PCWX"}, ErrUnexpected, "pcworx.plc_type"},
		{"HTTP", ScanHTTP, []string{"HTTP/1.1 200 OK\r\n\r\n\xfa<title>"}, nil, "http.title"},
		{"VNC", ScanVNC, []string{"RFB 003.008\n", "00"}, ErrUnexpected, "vnc.security_types"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var chunks [][]byte
			for _, r := range row.reads {
				chunks = append(chunks, []byte(r))
			}
			var (
				res *Result
				err error
			)
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("scan panicked: %v", p)
					}
				}()
				res, err = row.scan(script(chunks...))
			}()
			if !errors.Is(err, row.err) {
				t.Fatalf("err = %v, want %v", err, row.err)
			}
			if res == nil {
				t.Fatal("nil result")
			}
			if err != nil && res.Complete {
				t.Fatalf("failed scan is Complete: %+v", res)
			}
			if v, ok := res.Attributes[row.noAttr]; ok {
				t.Fatalf("%s = %q read from past the reply", row.noAttr, v)
			}
		})
	}
}

// TestReadReturnsExactBytes: a read hands out a slice of exactly the bytes
// that arrived, so a parser slicing past len panics instead of reading
// spare capacity, and the caller owns it.
func TestReadReturnsExactBytes(t *testing.T) {
	conn := script([]byte("RFB 003.008\n"), []byte("00"))
	for _, want := range []string{"RFB 003.008\n", "00"} {
		got, err := readSome(conn)
		if err != nil || string(got) != want || cap(got) != len(got) {
			t.Fatalf("readSome = %q (cap %d), %v; want %q with cap == len", got, cap(got), err, want)
		}
	}
	if got, err := ReadUpTo(script([]byte("0123456789")), 4); err != nil || string(got) != "0123" || cap(got) != 4 {
		t.Fatalf("ReadUpTo(4) = %q (cap %d), %v", got, cap(got), err)
	}
}

// TestTruncateIsRuneSafe puts a rune across the banner cap: truncate drops
// it whole rather than keep its first byte.
func TestTruncateIsRuneSafe(t *testing.T) {
	s := strings.Repeat("a", maxBanner-1) + "é" + "tail"
	got := truncate(s)
	if want := strings.Repeat("a", maxBanner-1); got != want {
		t.Fatalf("truncate kept %d bytes ending %q, want the %d bytes before the rune", len(got), got[len(got)-2:], len(want))
	}
	if !utf8.ValidString(got) {
		t.Fatal("truncate split a rune")
	}
	if s := strings.Repeat("b", maxBanner+9); truncate(s) != s[:maxBanner] {
		t.Fatal("ASCII is not cut at the cap")
	}
}

// splitReply cuts reply into reads: each big-endian uint16 in cuts is the
// length of the next read (modulo what is left, so 0 is a silent read), and
// whatever remains is the last read.
func splitReply(reply, cuts []byte) [][]byte {
	var chunks [][]byte
	for ; len(cuts) >= 2 && len(reply) > 0; cuts = cuts[2:] {
		n := int(binary.BigEndian.Uint16(cuts)) % (len(reply) + 1)
		chunks = append(chunks, reply[:n])
		reply = reply[n:]
	}
	return append(chunks, reply)
}

// seedReply adds chunks to f's corpus in splitReply's encoding.
func seedReply(f *testing.F, chunks ...[]byte) {
	var reply, cuts []byte
	for i, c := range chunks {
		reply = append(reply, c...)
		if i < len(chunks)-1 {
			cuts = binary.BigEndian.AppendUint16(cuts, uint16(len(c)))
		}
	}
	f.Add(reply, cuts)
}

// FuzzScanResponse runs every scanner, plain and inside StartTLS, against
// arbitrary server bytes split over several reads. Services on unexpected
// ports answer with anything, so no reply may panic a scanner (an
// interrogation worker has no recover) or produce a banner over the cap. The
// seeds are each protocol's own server transcript, plain and under TLS-lite,
// and the short replies of TestShortRepliesStayInsideTheReply.
func FuzzScanResponse(f *testing.F) {
	for _, p := range All() {
		plain := &recordingConn{inner: NewSessionConn(NewSession(defaultSpec(p.Name)))}
		p.Scan(plain)
		seedReply(f, plain.reads...)

		wrapped := &recordingConn{inner: NewSessionConn(NewSession(tlsSpec(p.Name)))}
		if _, inner, _, err := StartTLS(wrapped); err == nil {
			p.Scan(inner)
		}
		seedReply(f, wrapped.reads...)
	}
	seedReply(f, []byte("\x030000\xd0"), []byte("2"))
	seedReply(f, []byte("SRTP"))
	seedReply(f, []byte("PCWX"))
	seedReply(f, []byte("HTTP/1.1 200 OK\r\n\r\n\xfa<title>"))
	seedReply(f, []byte("RFB 003.008\n"), []byte("00"))

	f.Fuzz(func(t *testing.T, reply, cuts []byte) {
		chunks := splitReply(reply, cuts)
		check := func(p *Protocol, res *Result) {
			if res != nil && len(res.Banner) > maxBanner {
				t.Fatalf("%s: %d-byte banner", p.Name, len(res.Banner))
			}
		}
		Identify(reply)
		for _, p := range All() {
			res, _ := p.Scan(script(chunks...))
			check(p, res)
			if _, inner, _, err := StartTLS(script(chunks...)); err == nil {
				res, _ := p.Scan(inner)
				check(p, res)
			}
		}
	})
}
