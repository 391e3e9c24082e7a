package protocols

import (
	"fmt"
	"io"
	"strings"

	"censysmap/internal/entity"
)

// This file implements the banner-first TCP protocols: the server speaks as
// soon as the connection opens, which makes them the easy case for LZR-style
// detection — the banner itself identifies the protocol.

func init() {
	register(&Protocol{
		Name:         "SSH",
		Transport:    entity.TCP,
		DefaultPorts: []uint16{22, 2222},
		Scan:         ScanSSH,
		NewSession:   func(s Spec) Session { return &sshSession{spec: s} },
		Fingerprint: func(data []byte) bool {
			return strings.HasPrefix(string(data), "SSH-")
		},
	})
	register(&Protocol{
		Name:         "SMTP",
		Transport:    entity.TCP,
		DefaultPorts: []uint16{25, 587, 465},
		Scan:         ScanSMTP,
		NewSession:   func(s Spec) Session { return &smtpSession{spec: s} },
		Fingerprint: func(data []byte) bool {
			line := firstLine(string(data))
			if strings.HasPrefix(line, "220") &&
				(strings.Contains(line, "SMTP") || strings.Contains(line, "ESMTP")) {
				return true
			}
			// LZR's motivating example: an SMTP error elicited by an
			// HTTP request identifies the service as SMTP.
			return strings.HasPrefix(line, "502 5.5.2") || strings.HasPrefix(line, "500 5.5.1")
		},
	})
	register(&Protocol{
		Name:         "FTP",
		Transport:    entity.TCP,
		DefaultPorts: []uint16{21},
		Scan:         ScanFTP,
		NewSession:   func(s Spec) Session { return &ftpSession{spec: s} },
		Fingerprint: func(data []byte) bool {
			line := firstLine(string(data))
			return strings.HasPrefix(line, "220") &&
				(strings.Contains(line, "FTP") || strings.Contains(line, "FileZilla"))
		},
	})
	register(&Protocol{
		Name:         "TELNET",
		Transport:    entity.TCP,
		DefaultPorts: []uint16{23},
		Scan:         ScanTelnet,
		NewSession:   func(s Spec) Session { return &telnetSession{spec: s} },
		Fingerprint: func(data []byte) bool {
			return len(data) >= 3 && data[0] == 0xFF && (data[1] == 0xFD || data[1] == 0xFB)
		},
	})
	register(&Protocol{
		Name:         "VNC",
		Transport:    entity.TCP,
		DefaultPorts: []uint16{5900, 5901},
		Scan:         ScanVNC,
		NewSession:   func(s Spec) Session { return &vncSession{spec: s} },
		Fingerprint: func(data []byte) bool {
			return strings.HasPrefix(string(data), "RFB ")
		},
	})
}

// ---- SSH ----

// ScanSSH reads the version banner, presents our own, and records the
// server's key-exchange offer and host-key fingerprint.
func ScanSSH(rw io.ReadWriter) (*Result, error) {
	banner, err := readSome(rw)
	if err != nil {
		return nil, err
	}
	line := firstLine(string(banner))
	if !strings.HasPrefix(line, "SSH-") {
		return &Result{Protocol: "SSH", Banner: truncate(line)}, ErrUnexpected
	}
	res := &Result{Protocol: "SSH", Banner: truncate(line)}
	res.attr("ssh.version", line)
	if _, err := io.WriteString(rw, "SSH-2.0-CensysMap_1.0\r\n"); err != nil {
		return res, err
	}
	kex, err := readSome(rw)
	if err != nil {
		return res, err
	}
	fields := parseKVLine(firstLine(string(kex)), "KEXINIT ")
	if fields == nil {
		return res, ErrUnexpected
	}
	res.attr("ssh.kex", fields["kex"])
	res.attr("ssh.hostkey_type", fields["hostkey"])
	res.attr("ssh.hostkey_fp", fields["fp"])
	res.Complete = true
	return res, nil
}

type sshSession struct {
	spec     Spec
	bannered bool
}

func (s *sshSession) Greeting() []byte {
	product := s.spec.Product
	if product == "" {
		product = "OpenSSH"
	}
	version := s.spec.Version
	if version == "" {
		version = "9.3"
	}
	return []byte(fmt.Sprintf("SSH-2.0-%s_%s\r\n", strings.ReplaceAll(product, " ", "-"), version))
}

func (s *sshSession) Respond(req []byte) ([]byte, bool) {
	if !strings.HasPrefix(string(req), "SSH-") {
		return []byte("Protocol mismatch.\r\n"), true
	}
	fp := s.spec.extra("hostkey_fp", "SHA256:defaulthostkeyfp0000000000000000000000000000")
	return []byte(fmt.Sprintf(
		"KEXINIT kex=curve25519-sha256 hostkey=ssh-ed25519 fp=%s\r\n", fp)), false
}

// ---- SMTP ----

// ScanSMTP reads the 220 greeting and records the EHLO capability list.
func ScanSMTP(rw io.ReadWriter) (*Result, error) {
	banner, err := readSome(rw)
	if err != nil {
		return nil, err
	}
	line := firstLine(string(banner))
	res := &Result{Protocol: "SMTP", Banner: truncate(line)}
	if !strings.HasPrefix(line, "220") {
		return res, ErrUnexpected
	}
	if _, err := io.WriteString(rw, "EHLO scanner.censysmap.invalid\r\n"); err != nil {
		return res, err
	}
	caps, err := readSome(rw)
	if err != nil {
		return res, err
	}
	if !strings.HasPrefix(string(caps), "250") {
		return res, ErrUnexpected
	}
	var exts []string
	for _, l := range strings.Split(string(caps), "\r\n") {
		l = strings.TrimSpace(l)
		if len(l) > 4 {
			exts = append(exts, l[4:])
		}
	}
	res.attr("smtp.banner", line)
	res.attr("smtp.ehlo", strings.Join(exts, ","))
	res.Complete = true
	_, _ = io.WriteString(rw, "QUIT\r\n")
	return res, nil
}

type smtpSession struct {
	spec Spec
}

func (s *smtpSession) Greeting() []byte {
	host := s.spec.extra("hostname", "mail.example.net")
	product := s.spec.Product
	if product == "" {
		product = "Postfix"
	}
	return []byte(fmt.Sprintf("220 %s ESMTP %s\r\n", host, product))
}

func (s *smtpSession) Respond(req []byte) ([]byte, bool) {
	cmd := strings.ToUpper(firstLine(string(req)))
	host := s.spec.extra("hostname", "mail.example.net")
	switch {
	case strings.HasPrefix(cmd, "EHLO"), strings.HasPrefix(cmd, "HELO"):
		return []byte(fmt.Sprintf("250-%s\r\n250-PIPELINING\r\n250-STARTTLS\r\n250-8BITMIME\r\n250 SIZE 10240000\r\n", host)), false
	case strings.HasPrefix(cmd, "QUIT"):
		return []byte("221 2.0.0 Bye\r\n"), true
	default:
		return []byte("502 5.5.2 Error: command not recognized\r\n"), false
	}
}

// ---- FTP ----

// ScanFTP reads the 220 greeting and records the SYST response.
func ScanFTP(rw io.ReadWriter) (*Result, error) {
	banner, err := readSome(rw)
	if err != nil {
		return nil, err
	}
	line := firstLine(string(banner))
	res := &Result{Protocol: "FTP", Banner: truncate(line)}
	if !strings.HasPrefix(line, "220") {
		return res, ErrUnexpected
	}
	res.attr("ftp.banner", line)
	if _, err := io.WriteString(rw, "SYST\r\n"); err != nil {
		return res, err
	}
	syst, err := readSome(rw)
	if err != nil {
		return res, err
	}
	sline := firstLine(string(syst))
	if !strings.HasPrefix(sline, "215") {
		return res, ErrUnexpected
	}
	res.attr("ftp.syst", strings.TrimSpace(strings.TrimPrefix(sline, "215")))
	res.Complete = true
	_, _ = io.WriteString(rw, "QUIT\r\n")
	return res, nil
}

type ftpSession struct {
	spec Spec
}

func (s *ftpSession) Greeting() []byte {
	product := s.spec.Product
	if product == "" {
		product = "vsFTPd"
	}
	version := s.spec.Version
	if version == "" {
		version = "3.0.5"
	}
	return []byte(fmt.Sprintf("220 (%s %s) FTP server ready\r\n", product, version))
}

func (s *ftpSession) Respond(req []byte) ([]byte, bool) {
	cmd := strings.ToUpper(firstLine(string(req)))
	switch {
	case strings.HasPrefix(cmd, "SYST"):
		return []byte("215 UNIX Type: L8\r\n"), false
	case strings.HasPrefix(cmd, "QUIT"):
		return []byte("221 Goodbye.\r\n"), true
	case strings.HasPrefix(cmd, "USER"):
		return []byte("331 Please specify the password.\r\n"), false
	default:
		return []byte("500 Unknown command.\r\n"), false
	}
}

// ---- Telnet ----

// telnetIAC are the option-negotiation bytes a telnet server opens with:
// IAC DO TERMINAL-TYPE, IAC WILL ECHO, IAC WILL SUPPRESS-GO-AHEAD.
var telnetIAC = []byte{0xFF, 0xFD, 0x18, 0xFF, 0xFB, 0x01, 0xFF, 0xFB, 0x03}

// ScanTelnet records the negotiation options and any login banner.
func ScanTelnet(rw io.ReadWriter) (*Result, error) {
	data, err := readSome(rw)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 || data[0] != 0xFF {
		return &Result{Protocol: "TELNET", Banner: truncate(firstLine(string(data)))}, ErrUnexpected
	}
	res := &Result{Protocol: "TELNET", Complete: true}
	// Strip IAC sequences; what remains is the human-readable banner.
	var printable []byte
	var opts []string
	for i := 0; i < len(data); {
		if data[i] == 0xFF && i+2 < len(data) {
			opts = append(opts, fmt.Sprintf("%d.%d", data[i+1], data[i+2]))
			i += 3
			continue
		}
		printable = append(printable, data[i])
		i++
	}
	res.Banner = truncate(strings.TrimSpace(string(printable)))
	res.attr("telnet.options", strings.Join(opts, ","))
	res.attr("telnet.banner", res.Banner)
	return res, nil
}

type telnetSession struct {
	spec Spec
}

func (s *telnetSession) Greeting() []byte {
	banner := s.spec.extra("login_banner", s.spec.Product)
	if banner == "" {
		banner = "login:"
	}
	out := append([]byte(nil), telnetIAC...)
	return append(out, []byte("\r\n"+banner+" ")...)
}

func (s *telnetSession) Respond(req []byte) ([]byte, bool) {
	return []byte("Password: "), false
}

// ---- VNC ----

// ScanVNC reads the RFB version and negotiates security types.
func ScanVNC(rw io.ReadWriter) (*Result, error) {
	banner, err := readSome(rw)
	if err != nil {
		return nil, err
	}
	line := firstLine(string(banner))
	res := &Result{Protocol: "VNC", Banner: truncate(line)}
	if !strings.HasPrefix(line, "RFB ") {
		return res, ErrUnexpected
	}
	res.attr("vnc.version", strings.TrimPrefix(line, "RFB "))
	if _, err := io.WriteString(rw, line+"\n"); err != nil {
		return res, err
	}
	sec, err := readSome(rw)
	if err != nil {
		return res, err
	}
	if len(sec) < 2 || len(sec) < 1+int(sec[0]) {
		return res, ErrUnexpected
	}
	var types []string
	for _, b := range sec[1 : 1+int(sec[0])] {
		types = append(types, fmt.Sprintf("%d", b))
	}
	res.attr("vnc.security_types", strings.Join(types, ","))
	res.Complete = true
	return res, nil
}

type vncSession struct {
	spec Spec
}

func (s *vncSession) Greeting() []byte {
	version := s.spec.Version
	if version == "" {
		version = "003.008"
	}
	return []byte("RFB " + version + "\n")
}

func (s *vncSession) Respond(req []byte) ([]byte, bool) {
	if strings.HasPrefix(string(req), "RFB ") {
		// number of security types, then the types (2 = VNC auth).
		return []byte{1, 2}, false
	}
	return nil, true
}

// parseKVLine parses "PREFIX k1=v1 k2=v2" into a map; nil if prefix missing.
func parseKVLine(line, prefix string) map[string]string {
	if !strings.HasPrefix(line, prefix) {
		return nil
	}
	out := make(map[string]string)
	for _, f := range strings.Fields(line[len(prefix):]) {
		if k, v, ok := strings.Cut(f, "="); ok {
			out[k] = v
		}
	}
	return out
}
