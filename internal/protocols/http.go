package protocols

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"

	"censysmap/internal/entity"
)

func init() {
	register(&Protocol{
		Name:         "HTTP",
		Transport:    entity.TCP,
		DefaultPorts: []uint16{80, 8080, 8000, 8888, 7547, 2082},
		Scan:         ScanHTTP,
		NewSession:   func(s Spec) Session { return &httpSession{spec: s} },
		Fingerprint: func(data []byte) bool {
			return strings.HasPrefix(string(data), "HTTP/1.1 ") ||
				strings.HasPrefix(string(data), "HTTP/1.0 ")
		},
	})
}

// httpRequest is the scanner's canonical root-page fetch. The User-Agent
// identifies the scanner, per the measurement ethics the paper follows.
const httpRequest = "GET / HTTP/1.1\r\nHost: %s\r\nUser-Agent: Mozilla/5.0 (compatible; CensysMap/1.0)\r\nAccept: */*\r\nConnection: close\r\n\r\n"

// ScanHTTP fetches the root page and extracts configuration-stable fields:
// status, server header, HTML title, and a body hash.
func ScanHTTP(rw io.ReadWriter) (*Result, error) {
	return scanHTTPHost(rw, "scanned.invalid")
}

// ScanHTTPHost is ScanHTTP with an explicit Host header, used for
// name-addressed web property scans.
func ScanHTTPHost(rw io.ReadWriter, host string) (*Result, error) {
	return scanHTTPHost(rw, host)
}

func scanHTTPHost(rw io.ReadWriter, host string) (*Result, error) {
	if _, err := fmt.Fprintf(rw, httpRequest, host); err != nil {
		return nil, err
	}
	raw, err := readSome(rw)
	if err != nil {
		return nil, err
	}
	status, headers, body, ok := ParseHTTPResponse(string(raw))
	if !ok {
		return &Result{Protocol: "HTTP", Banner: truncate(firstLine(string(raw)))}, ErrUnexpected
	}
	res := &Result{Protocol: "HTTP", Complete: true, Banner: truncate(firstLine(string(raw)))}
	res.attr("http.status_code", strconv.Itoa(status))
	res.attr("http.server", headers["server"])
	res.attr("http.location", headers["location"])
	res.attr("http.www_authenticate", headers["www-authenticate"])
	res.attr("http.title", htmlTitle(body))
	if body != "" {
		sum := sha256.Sum256([]byte(body))
		res.attr("http.body_sha256", hex.EncodeToString(sum[:8]))
	}
	return res, nil
}

// ParseHTTPResponse splits a raw HTTP/1.x response into status code,
// lower-cased headers, and body. ok is false if the input is not HTTP.
func ParseHTTPResponse(raw string) (status int, headers map[string]string, body string, ok bool) {
	if !strings.HasPrefix(raw, "HTTP/1.") {
		return 0, nil, "", false
	}
	head, b, _ := strings.Cut(raw, "\r\n\r\n")
	lines := strings.Split(head, "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 2 {
		return 0, nil, "", false
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, nil, "", false
	}
	headers = make(map[string]string, len(lines)-1)
	for _, l := range lines[1:] {
		if k, v, found := strings.Cut(l, ":"); found {
			headers[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
		}
	}
	return code, headers, b, true
}

// htmlTitle extracts the <title> element text, if any.
func htmlTitle(body string) string {
	start := indexFold(body, "<title>")
	if start < 0 {
		return ""
	}
	rest := body[start+len("<title>"):]
	end := indexFold(rest, "</title>")
	if end < 0 {
		return ""
	}
	return strings.TrimSpace(rest[:end])
}

// indexFold is strings.Index matching tag, which starts with '<',
// case-insensitively at s's own byte offsets. Searching strings.ToLower(s)
// moves them wherever ToLower changes a byte count (an invalid byte becomes
// the 3-byte U+FFFD).
func indexFold(s, tag string) int {
	for i := 0; ; i++ {
		j := strings.IndexByte(s[i:], '<')
		if j < 0 || i+j+len(tag) > len(s) {
			return -1
		}
		if i += j; strings.EqualFold(s[i:i+len(tag)], tag) {
			return i
		}
	}
}

// httpSession simulates an HTTP server whose identity comes from the Spec.
type httpSession struct {
	spec Spec
}

func (s *httpSession) Greeting() []byte { return nil }

func (s *httpSession) Respond(req []byte) ([]byte, bool) {
	line := firstLine(string(req))
	method, rest, _ := strings.Cut(line, " ")
	path, _, _ := strings.Cut(rest, " ")
	switch method {
	case "GET", "HEAD", "POST", "OPTIONS":
		return s.respondHTTP(method, path), true
	default:
		// Non-HTTP input: a real server answers 400 and closes.
		return []byte("HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"), true
	}
}

func (s *httpSession) serverHeader() string {
	product := s.spec.Product
	if product == "" {
		product = "httpd"
	}
	if s.spec.Version != "" {
		return product + "/" + s.spec.Version
	}
	return product
}

func (s *httpSession) respondHTTP(method, path string) []byte {
	if loc := s.spec.extra("redirect", ""); loc != "" {
		return []byte(fmt.Sprintf(
			"HTTP/1.1 301 Moved Permanently\r\nServer: %s\r\nLocation: %s\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
			s.serverHeader(), loc))
	}
	if realm := s.spec.extra("auth_realm", ""); realm != "" {
		return []byte(fmt.Sprintf(
			"HTTP/1.1 401 Unauthorized\r\nServer: %s\r\nWWW-Authenticate: Basic realm=\"%s\"\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
			s.serverHeader(), realm))
	}
	title := s.spec.Title
	if title == "" {
		title = "Welcome"
	}
	body := s.spec.extra("body", "")
	if body == "" {
		body = fmt.Sprintf("<html><head><title>%s</title></head><body><h1>%s</h1></body></html>", title, title)
	}
	if path == "/favicon.ico" {
		body = s.spec.extra("favicon", "favicon-default")
	}
	if method == "HEAD" {
		body = ""
	}
	return []byte(fmt.Sprintf(
		"HTTP/1.1 200 OK\r\nServer: %s\r\nContent-Type: text/html\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s",
		s.serverHeader(), len(body), body))
}
