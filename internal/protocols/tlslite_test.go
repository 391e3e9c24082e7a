package protocols

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// fingerprint is the hex SHA-256 a handshake must report for cert.
func fingerprint(cert []byte) string {
	sum := sha256.Sum256(cert)
	return hex.EncodeToString(sum[:])
}

func tlsSpec(inner string) Spec {
	return Spec{
		Protocol:   inner,
		Product:    "nginx",
		Version:    "1.24.0",
		Title:      "Secure App",
		TLS:        true,
		CertDER:    []byte("CERT-BLOB-FOR-secure.example.com"),
		CertSHA256: "cafe",
	}
}

func TestStartTLSHandshake(t *testing.T) {
	conn := NewSessionConn(NewSession(tlsSpec("HTTP")))
	info, inner, _, err := StartTLS(conn)
	if err != nil {
		t.Fatal(err)
	}
	if want := fingerprint([]byte("CERT-BLOB-FOR-secure.example.com")); info.CertSHA256 != want {
		t.Fatalf("fingerprint = %q, want %q", info.CertSHA256, want)
	}
	if !strings.HasPrefix(info.JA4S, "t13d_") {
		t.Fatalf("JA4S = %q", info.JA4S)
	}
	// The inner stream then speaks plain HTTP.
	res, err := ScanHTTP(inner)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Attributes["http.title"] != "Secure App" {
		t.Fatalf("inner HTTP = %+v", res)
	}
}

func TestStartTLSAgainstPlaintextServer(t *testing.T) {
	conn := NewSessionConn(NewSession(defaultSpec("HTTP")))
	_, _, raw, err := StartTLS(conn)
	if err != ErrUnexpected {
		t.Fatalf("err = %v, want ErrUnexpected", err)
	}
	if len(raw) == 0 {
		t.Fatal("raw response bytes not returned for fingerprinting")
	}
}

func TestStartTLSServerFirstInnerGreeting(t *testing.T) {
	// An SSH-over-TLS session must deliver the inner greeting after the
	// handshake even though it arrives in the same flush as the cert.
	spec := tlsSpec("SSH")
	spec.Product = "OpenSSH"
	spec.Version = "9.3"
	conn := NewSessionConn(NewSession(spec))
	info, inner, _, err := StartTLS(conn)
	if err != nil {
		t.Fatal(err)
	}
	if info.CertSHA256 == "" {
		t.Fatal("no cert")
	}
	res, err := ScanSSH(inner)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Attributes["ssh.version"] != "SSH-2.0-OpenSSH_9.3" {
		t.Fatalf("inner SSH = %+v", res)
	}
}

func TestTLSSessionRejectsPlaintextClient(t *testing.T) {
	conn := NewSessionConn(NewSession(tlsSpec("HTTP")))
	// Speak plain HTTP to a TLS port: expect an alert and close.
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x15 { // TLS alert record type
		t.Fatalf("expected alert, got %v", buf[:n])
	}
	if !conn.closed {
		t.Fatal("connection not closed after alert")
	}
}

func TestJA4SStablePerCert(t *testing.T) {
	a := JA4S([]byte("cert-a"))
	b := JA4S([]byte("cert-a"))
	c := JA4S([]byte("cert-b"))
	if a != b {
		t.Fatal("JA4S not deterministic")
	}
	if a == c {
		t.Fatal("JA4S collision across certs")
	}
}

func TestNewSessionUnknownProtocol(t *testing.T) {
	if NewSession(Spec{Protocol: "NOPE"}) != nil {
		t.Fatal("unknown protocol session created")
	}
}

func TestLargeCertSpansReads(t *testing.T) {
	// Certificates larger than one read buffer must reassemble.
	big := make([]byte, 9000)
	for i := range big {
		big[i] = byte(i)
	}
	spec := Spec{Protocol: "HTTP", TLS: true, CertDER: big}
	conn := NewSessionConn(NewSession(spec))
	info, _, _, err := StartTLS(conn)
	if err != nil {
		t.Fatal(err)
	}
	if want := fingerprint(big); info.CertSHA256 != want {
		t.Fatalf("fingerprint = %q, want %q", info.CertSHA256, want)
	}
}
