package protocols

import (
	"io"
	"slices"
	"sort"
	"strings"
	"testing"

	"censysmap/internal/entity"
)

// recordingConn records every chunk of server bytes a scanner reads: the
// first feeds the Identify matrix, and all of them seed FuzzScanResponse.
type recordingConn struct {
	inner io.ReadWriter
	reads [][]byte
}

func (r *recordingConn) Read(p []byte) (int, error) {
	n, err := r.inner.Read(p)
	if n > 0 {
		r.reads = append(r.reads, append([]byte(nil), p[:n]...))
	}
	return n, err
}

// first returns the first chunk read, or nil.
func (r *recordingConn) first() []byte {
	if len(r.reads) == 0 {
		return nil
	}
	return r.reads[0]
}

func (r *recordingConn) Write(p []byte) (int, error) { return r.inner.Write(p) }

// defaultSpec builds a plain (non-TLS) spec for a protocol.
func defaultSpec(name string) Spec { return Spec{Protocol: name} }

func TestEveryProtocolScansItsOwnSession(t *testing.T) {
	for _, p := range All() {
		t.Run(p.Name, func(t *testing.T) {
			sess := p.NewSession(defaultSpec(p.Name))
			conn := NewSessionConn(sess)
			res, err := p.Scan(conn)
			if err != nil {
				t.Fatalf("Scan: %v", err)
			}
			if !res.Complete {
				t.Fatalf("handshake not complete: %+v", res)
			}
			if res.Protocol != p.Name {
				t.Fatalf("Protocol = %q, want %q", res.Protocol, p.Name)
			}
		})
	}
}

func TestIdentifyMatrix(t *testing.T) {
	// For every protocol, the first bytes its server sends during a scan
	// must be identified as exactly that protocol.
	for _, p := range All() {
		t.Run(p.Name, func(t *testing.T) {
			sess := p.NewSession(defaultSpec(p.Name))
			rec := &recordingConn{inner: NewSessionConn(sess)}
			if _, err := p.Scan(rec); err != nil {
				t.Fatalf("Scan: %v", err)
			}
			if rec.first() == nil {
				t.Fatal("scanner never read server bytes")
			}
			if got := Identify(rec.first()); got != p.Name {
				t.Fatalf("Identify(%q...) = %q, want %q", clip(rec.first()), got, p.Name)
			}
		})
	}
}

func clip(b []byte) string {
	s := string(b)
	if len(s) > 40 {
		s = s[:40]
	}
	return s
}

func TestCrossScanNeverCompletesWrongProtocol(t *testing.T) {
	// Scanner A against server B (A != B) must never report a complete
	// A-handshake: this is the property that prevents the mislabeling the
	// paper's §6.3 documents in keyword-based engines.
	for _, scanner := range All() {
		for _, server := range All() {
			if scanner.Name == server.Name {
				continue
			}
			// Transport mismatches cannot occur in practice: interrogation
			// knows the probe transport.
			if scanner.Transport != server.Transport {
				continue
			}
			sess := server.NewSession(defaultSpec(server.Name))
			res, err := scanner.Scan(NewSessionConn(sess))
			if err == nil && res != nil && res.Complete {
				t.Errorf("%s scanner completed against %s server: %+v",
					scanner.Name, server.Name, res)
			}
		}
	}
}

func TestForPort(t *testing.T) {
	ps := ForPort(502, "tcp")
	if len(ps) != 1 || ps[0].Name != "MODBUS" {
		t.Fatalf("ForPort(502) = %v", names(ps))
	}
	if got := ForPort(53, "udp"); len(got) != 1 || got[0].Name != "DNS" {
		t.Fatalf("ForPort(53/udp) = %v", names(got))
	}
	if got := ForPort(53, "tcp"); len(got) != 0 {
		t.Fatalf("ForPort(53/tcp) = %v", names(got))
	}
	if got := ForPort(59999, "tcp"); len(got) != 0 {
		t.Fatalf("ForPort(59999) = %v", names(got))
	}
}

// TestSortedRegistryMatchesBruteForce: All, ForPort and Identify read the
// registry as sorted once at registration. They must answer as a fresh sort
// and filter of the registry map would: for every port × transport, and for
// every protocol's greeting and first scanned bytes plus bytes nobody speaks.
func TestSortedRegistryMatchesBruteForce(t *testing.T) {
	var sorted []*Protocol
	for _, p := range registry {
		sorted = append(sorted, p)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	if !slices.Equal(All(), sorted) {
		t.Fatalf("All = %v, want %v", names(All()), names(sorted))
	}
	for _, tr := range []entity.Transport{entity.TCP, entity.UDP} {
		for port := 0; port <= 65535; port++ {
			var want []*Protocol
			for _, p := range sorted {
				if p.Transport == tr && slices.Contains(p.DefaultPorts, uint16(port)) {
					want = append(want, p)
				}
			}
			if got := ForPort(uint16(port), tr); !slices.Equal(got, want) {
				t.Fatalf("ForPort(%d/%s) = %v, want %v", port, tr, names(got), names(want))
			}
		}
	}

	inputs := [][]byte{nil, []byte("nothing speaks this\r\n"), {0xff, 0x00, 0x13}}
	for _, p := range sorted {
		sess := p.NewSession(defaultSpec(p.Name))
		inputs = append(inputs, sess.Greeting())
		rec := &recordingConn{inner: NewSessionConn(sess)}
		_, _ = p.Scan(rec)
		inputs = append(inputs, rec.first())
	}
	for _, data := range inputs {
		want := ""
		for _, p := range sorted {
			if len(data) > 0 && p.Fingerprint != nil && p.Fingerprint(data) {
				want = p.Name
				break
			}
		}
		if got := Identify(data); got != want {
			t.Fatalf("Identify(%q) = %q, want %q", clip(data), got, want)
		}
	}
}

func names(ps []*Protocol) []string {
	var out []string
	for _, p := range ps {
		out = append(out, p.Name)
	}
	return out
}

func TestICSProtocolsList(t *testing.T) {
	var ics []*Protocol
	for _, p := range All() {
		if p.ICS {
			ics = append(ics, p)
		}
	}
	if len(ics) != 16 {
		t.Fatalf("ICS protocols = %v, want 16", names(ics))
	}
}

func TestLookup(t *testing.T) {
	if Lookup("HTTP") == nil {
		t.Fatal("HTTP not registered")
	}
	if Lookup("NOPE") != nil {
		t.Fatal("unknown protocol returned")
	}
}

func TestIdentifyEmpty(t *testing.T) {
	if got := Identify(nil); got != "" {
		t.Fatalf("Identify(nil) = %q", got)
	}
}

func TestHTTPScanExtractsFields(t *testing.T) {
	spec := Spec{Protocol: "HTTP", Product: "nginx", Version: "1.24.0", Title: "Admin Console"}
	res, err := ScanHTTP(NewSessionConn(NewSession(spec)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attributes["http.server"] != "nginx/1.24.0" {
		t.Fatalf("server = %q", res.Attributes["http.server"])
	}
	if res.Attributes["http.title"] != "Admin Console" {
		t.Fatalf("title = %q", res.Attributes["http.title"])
	}
	if res.Attributes["http.status_code"] != "200" {
		t.Fatalf("status = %q", res.Attributes["http.status_code"])
	}
	if res.Attributes["http.body_sha256"] == "" {
		t.Fatal("missing body hash")
	}
}

func TestHTTPRedirectAndAuth(t *testing.T) {
	spec := Spec{Protocol: "HTTP", Extra: map[string]string{"redirect": "https://example.com/"}}
	res, err := ScanHTTP(NewSessionConn(NewSession(spec)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attributes["http.status_code"] != "301" || res.Attributes["http.location"] != "https://example.com/" {
		t.Fatalf("redirect attrs = %v", res.Attributes)
	}
	spec = Spec{Protocol: "HTTP", Extra: map[string]string{"auth_realm": "router"}}
	res, err = ScanHTTP(NewSessionConn(NewSession(spec)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attributes["http.status_code"] != "401" ||
		!strings.Contains(res.Attributes["http.www_authenticate"], "router") {
		t.Fatalf("auth attrs = %v", res.Attributes)
	}
}

func TestHTTPStableAcrossRescans(t *testing.T) {
	// The same server configuration must produce identical attributes on
	// every scan — the "stable record" property delta journaling relies on.
	spec := Spec{Protocol: "HTTP", Product: "Apache", Version: "2.4.57", Title: "It works"}
	a, err := ScanHTTP(NewSessionConn(NewSession(spec)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScanHTTP(NewSessionConn(NewSession(spec)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Attributes) != len(b.Attributes) {
		t.Fatalf("attribute count changed: %v vs %v", a.Attributes, b.Attributes)
	}
	for k, v := range a.Attributes {
		if b.Attributes[k] != v {
			t.Fatalf("attribute %q changed: %q vs %q", k, v, b.Attributes[k])
		}
	}
}

func TestParseHTTPResponse(t *testing.T) {
	raw := "HTTP/1.1 404 Not Found\r\nServer: test\r\nX-Y: a:b\r\n\r\nbody"
	status, headers, body, ok := ParseHTTPResponse(raw)
	if !ok || status != 404 || headers["server"] != "test" || headers["x-y"] != "a:b" || body != "body" {
		t.Fatalf("parsed = %d %v %q ok=%v", status, headers, body, ok)
	}
	if _, _, _, ok := ParseHTTPResponse("SSH-2.0-x"); ok {
		t.Fatal("non-HTTP accepted")
	}
	if _, _, _, ok := ParseHTTPResponse("HTTP/1.1 abc\r\n\r\n"); ok {
		t.Fatal("bad status accepted")
	}
}

func TestHTMLTitle(t *testing.T) {
	cases := []struct{ in, want string }{
		{"<html><head><TITLE> Hi </TITLE></head></html>", "Hi"},
		{"<title>a</title><title>b</title>", "a"},
		{"no title here", ""},
		{"<title>unterminated", ""},
		// Invalid bytes around the tags must not move the offsets.
		{"\xfa<title>", ""},
		{"\xfa<TiTlE>caf\xc3\xa9</tItLe>", "café"},
		{"\xff\xfe<title>x\xfa</title>", "x\xfa"},
	}
	for _, c := range cases {
		if got := htmlTitle(c.in); got != c.want {
			t.Errorf("htmlTitle(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSSHScanFields(t *testing.T) {
	spec := Spec{Protocol: "SSH", Product: "OpenSSH", Version: "9.6",
		Extra: map[string]string{"hostkey_fp": "SHA256:abc123"}}
	res, err := ScanSSH(NewSessionConn(NewSession(spec)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attributes["ssh.version"] != "SSH-2.0-OpenSSH_9.6" {
		t.Fatalf("version = %q", res.Attributes["ssh.version"])
	}
	if res.Attributes["ssh.hostkey_fp"] != "SHA256:abc123" {
		t.Fatalf("fp = %q", res.Attributes["ssh.hostkey_fp"])
	}
}

func TestSMTPEHLOCapabilities(t *testing.T) {
	res, err := ScanSMTP(NewSessionConn(NewSession(defaultSpec("SMTP"))))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Attributes["smtp.ehlo"], "STARTTLS") {
		t.Fatalf("ehlo = %q", res.Attributes["smtp.ehlo"])
	}
}

func TestSMTPIdentifiedFromHTTPTrigger(t *testing.T) {
	// LZR's canonical example: sending an HTTP request to an SMTP server
	// elicits an SMTP error, which identifies the protocol.
	sess := NewSession(defaultSpec("SMTP"))
	conn := NewSessionConn(sess)
	buf := make([]byte, 512)
	n, _ := conn.Read(buf) // greeting
	_, _ = conn.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	n, _ = conn.Read(buf)
	if got := Identify(buf[:n]); got != "SMTP" {
		t.Fatalf("Identify(error reply %q) = %q, want SMTP", buf[:n], got)
	}
}

func TestMySQLVersionParsed(t *testing.T) {
	spec := Spec{Protocol: "MYSQL", Version: "5.7.44"}
	res, err := ScanMySQL(NewSessionConn(NewSession(spec)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attributes["mysql.version"] != "5.7.44" {
		t.Fatalf("version = %q", res.Attributes["mysql.version"])
	}
}

func TestRedisAuthRequired(t *testing.T) {
	spec := Spec{Protocol: "REDIS", Extra: map[string]string{"auth": "required"}}
	res, err := ScanRedis(NewSessionConn(NewSession(spec)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Attributes["redis.auth_required"] != "true" {
		t.Fatalf("res = %+v", res)
	}
}

func TestDNSVersionBind(t *testing.T) {
	spec := Spec{Protocol: "DNS", Product: "dnsmasq", Version: "2.90"}
	res, err := ScanDNS(NewSessionConn(NewSession(spec)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attributes["dns.version_bind"] != "dnsmasq 2.90" {
		t.Fatalf("version.bind = %q", res.Attributes["dns.version_bind"])
	}
}

func TestDNSQueryWireFormat(t *testing.T) {
	q := EncodeDNSQuery("version.bind", 16, 3)
	// header(12) + 8("version")+5("bind")+2 labels len+terminator... verify
	// structure by decoding.
	name, off, ok := decodeDNSName(q, 12)
	if !ok || name != "version.bind" {
		t.Fatalf("decoded name = %q ok=%v", name, ok)
	}
	if off+4 != len(q) {
		t.Fatalf("question length mismatch: off=%d len=%d", off, len(q))
	}
}

func TestSNMPSysDescr(t *testing.T) {
	spec := Spec{Protocol: "SNMP", Vendor: "Cisco", Product: "IOS", Version: "15.2"}
	res, err := ScanSNMP(NewSessionConn(NewSession(spec)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attributes["snmp.sysdescr"] != "Cisco IOS 15.2" {
		t.Fatalf("sysdescr = %q", res.Attributes["snmp.sysdescr"])
	}
}

func TestModbusDeviceIdentification(t *testing.T) {
	spec := Spec{Protocol: "MODBUS", Vendor: "Siemens", Product: "SIMATIC", Version: "V4.0"}
	res, err := ScanModbus(NewSessionConn(NewSession(spec)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attributes["modbus.vendor"] != "Siemens" ||
		res.Attributes["modbus.product_code"] != "SIMATIC" ||
		res.Attributes["modbus.revision"] != "V4.0" {
		t.Fatalf("attrs = %v", res.Attributes)
	}
}

func TestS7ModuleID(t *testing.T) {
	spec := Spec{Protocol: "S7", Product: "6ES7 512-1DK01-0AB0", Version: "2.9.4"}
	res, err := ScanS7(NewSessionConn(NewSession(spec)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attributes["s7.module"] != "6ES7 512-1DK01-0AB0" {
		t.Fatalf("module = %q", res.Attributes["s7.module"])
	}
	if res.Attributes["s7.firmware"] != "2.9.4" {
		t.Fatalf("firmware = %q", res.Attributes["s7.firmware"])
	}
}

func TestFoxStation(t *testing.T) {
	spec := Spec{Protocol: "FOX", Title: "WaterPlant7"}
	res, err := ScanFox(NewSessionConn(NewSession(spec)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attributes["fox.station"] != "WaterPlant7" {
		t.Fatalf("station = %q", res.Attributes["fox.station"])
	}
}

func TestEIPProductName(t *testing.T) {
	spec := Spec{Protocol: "EIP", Product: "CompactLogix 5370"}
	res, err := ScanEIP(NewSessionConn(NewSession(spec)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attributes["eip.product_name"] != "CompactLogix 5370" {
		t.Fatalf("product = %q", res.Attributes["eip.product_name"])
	}
}

func TestATGInventory(t *testing.T) {
	res, err := ScanATG(NewSessionConn(NewSession(defaultSpec("ATG"))))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("res = %+v", res)
	}
}

func TestSessionConnEOFAfterClose(t *testing.T) {
	sess := NewSession(defaultSpec("MYSQL"))
	conn := NewSessionConn(sess)
	buf := make([]byte, 4096)
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	// COM_QUIT closes the session.
	if _, err := conn.Write([]byte{0x01, 0x00, 0x00, 0x00, 0x01}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(buf); err != io.EOF {
		t.Fatalf("Read after close err = %v, want EOF", err)
	}
	if _, err := conn.Write([]byte("x")); err != io.ErrClosedPipe {
		t.Fatalf("Write after close err = %v, want ErrClosedPipe", err)
	}
}

func TestSessionConnTimeoutOnSilence(t *testing.T) {
	// HTTP servers don't greet; reading before writing times out.
	conn := NewSessionConn(NewSession(defaultSpec("HTTP")))
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}
