package protocols

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
)

// TLS-lite is the simulation substitute for TLS (see DESIGN.md): a
// two-message handshake in which the server presents its encoded certificate,
// after which the stream continues in the clear. It preserves exactly what
// the pipeline consumes from real TLS — the certificate's fingerprint, a
// JA4S-style server fingerprint, and the ability to run inner-protocol
// detection inside the session — without reimplementing cryptography the
// experiments never exercise. The leading 0x16 byte mirrors the real TLS handshake
// content-type so traffic classifiers see a TLS-shaped flow.

// tlsClientHello is the client's opening message.
var tlsClientHello = []byte("\x16STLS/1.0 CLIENTHELLO censysmap\n")

// tlsServerHelloPrefix begins the server's reply, followed by a 4-byte
// big-endian certificate length and the certificate bytes.
var tlsServerHelloPrefix = []byte("\x16STLS/1.0 SERVERHELLO\n")

// TLSInfo describes an established TLS-lite session.
type TLSInfo struct {
	// CertSHA256 is the hex fingerprint of the certificate the server
	// presented.
	CertSHA256 string
	// JA4S is a JA4S-style stable server fingerprint derived from the
	// handshake parameters.
	JA4S string
}

// StartTLS performs the client side of the TLS-lite handshake. On success it
// returns session info and a ReadWriter for the inner stream (which may
// already have buffered server bytes, e.g. an inner-protocol greeting).
// A peer that does not speak TLS-lite yields ErrUnexpected, with the bytes it
// did send available in raw for fingerprinting.
func StartTLS(rw io.ReadWriter) (info *TLSInfo, inner io.ReadWriter, raw []byte, err error) {
	if _, err := rw.Write(tlsClientHello); err != nil {
		return nil, nil, nil, err
	}
	buf, err := readSome(rw)
	if err != nil {
		return nil, nil, nil, err
	}
	if !bytes.HasPrefix(buf, tlsServerHelloPrefix) {
		return nil, nil, buf, ErrUnexpected
	}
	rest := buf[len(tlsServerHelloPrefix):]
	// Assemble the 4-byte length plus certificate, reading more if the
	// first read split the handshake record.
	for len(rest) < 4 {
		more, err := readSome(rw)
		if err != nil {
			return nil, nil, buf, fmt.Errorf("TLS-lite: truncated server hello: %w", err)
		}
		rest = append(rest, more...)
	}
	certLen := int(binary.BigEndian.Uint32(rest[:4]))
	if certLen > 1<<20 {
		return nil, nil, buf, fmt.Errorf("TLS-lite: absurd certificate length %d", certLen)
	}
	rest = rest[4:]
	for len(rest) < certLen {
		more, err := readSome(rw)
		if err != nil {
			return nil, nil, buf, fmt.Errorf("TLS-lite: truncated certificate: %w", err)
		}
		rest = append(rest, more...)
	}
	cert := rest[:certLen]
	leftover := append([]byte(nil), rest[certLen:]...)
	sum := sha256.Sum256(cert)
	info = &TLSInfo{
		CertSHA256: hex.EncodeToString(sum[:]),
		JA4S:       JA4S(cert),
	}
	return info, &bufferedRW{rw: rw, buf: leftover}, nil, nil
}

// JA4S derives the stable server fingerprint for a TLS-lite handshake
// presenting the given certificate. Real JA4S hashes negotiated parameters;
// in TLS-lite the certificate is the only negotiated parameter.
func JA4S(cert []byte) string {
	sum := sha256.Sum256(append([]byte("stls1.0|"), cert...))
	return "t13d_" + hex.EncodeToString(sum[:6])
}

// bufferedRW drains buffered handshake leftovers before reading the
// underlying stream.
type bufferedRW struct {
	rw  io.ReadWriter
	buf []byte
}

func (b *bufferedRW) Read(p []byte) (int, error) {
	if len(b.buf) > 0 {
		n := copy(p, b.buf)
		b.buf = b.buf[n:]
		return n, nil
	}
	return b.rw.Read(p)
}

func (b *bufferedRW) Write(p []byte) (int, error) { return b.rw.Write(p) }

// tlsSession wraps an inner server Session behind the TLS-lite handshake.
type tlsSession struct {
	spec      Spec
	inner     Session
	handshook bool
}

// NewTLSSession wraps inner so the connection requires a TLS-lite handshake
// presenting spec.CertDER before the inner protocol is reachable.
func NewTLSSession(spec Spec, inner Session) Session {
	return &tlsSession{spec: spec, inner: inner}
}

// Greeting is empty: TLS servers never speak first.
func (t *tlsSession) Greeting() []byte { return nil }

func (t *tlsSession) Respond(req []byte) ([]byte, bool) {
	if !t.handshook {
		if !bytes.Equal(req, tlsClientHello) {
			// Not TLS: real stacks send an alert and close.
			return []byte("\x15\x03\x03\x00\x02\x02\x28"), true
		}
		t.handshook = true
		var resp []byte
		resp = append(resp, tlsServerHelloPrefix...)
		resp = binary.BigEndian.AppendUint32(resp, uint32(len(t.spec.CertDER)))
		resp = append(resp, t.spec.CertDER...)
		resp = append(resp, t.inner.Greeting()...)
		return resp, false
	}
	return t.inner.Respond(req)
}

// NewSession builds the full server session for a Spec: the protocol's inner
// session, wrapped in TLS-lite when the spec enables it. It returns nil for
// unknown protocols.
func NewSession(spec Spec) Session {
	p := Lookup(spec.Protocol)
	if p == nil || p.NewSession == nil {
		return nil
	}
	inner := p.NewSession(spec)
	if spec.TLS {
		return NewTLSSession(spec, inner)
	}
	return inner
}
