package serve

import (
	"net/http"
	"strings"
)

// Conditional GET on /v2/hosts/{ip}: the lookup service sets the host's
// strong ETag — the quoted FNV-64a hex of the body, rendered and hashed once
// per journal version by cqrs.Reader.HostJSON — and the serving tier
// compares it with If-None-Match as the response is committed. A match
// answers 304 with no body, so polling clients (the dominant point-read
// pattern) pay headers only while the host is unchanged. The ETag is a pure
// function of the response bytes, so it is stable across replicas and
// deterministic under the simulated clock.

// conditionalWriter wraps the response of a host point read: a 200 whose
// ETag the request's If-None-Match matches goes out as a 304 without
// Content-Type or body, keeping every other header the handler set (serving
// node, degraded mode). Any other status passes through untouched.
type conditionalWriter struct {
	http.ResponseWriter
	metrics     *serveMetrics
	ifNoneMatch string
	wrote       bool
	notModified bool
}

func (cw *conditionalWriter) WriteHeader(code int) {
	if !cw.wrote && code == http.StatusOK {
		hit := etagMatch(cw.ifNoneMatch, cw.Header().Get("ETag"))
		cw.metrics.conditionalInc(hit)
		if hit {
			cw.notModified = true
			cw.Header().Del("Content-Type")
			code = http.StatusNotModified
		}
	}
	cw.wrote = true
	cw.ResponseWriter.WriteHeader(code)
}

func (cw *conditionalWriter) Write(b []byte) (int, error) {
	if !cw.wrote {
		cw.WriteHeader(http.StatusOK)
	}
	if cw.notModified {
		return len(b), nil
	}
	return cw.ResponseWriter.Write(b)
}

// conditionalHost forwards a host point read through the conditional writer.
func (s *Server) conditionalHost(w http.ResponseWriter, r *http.Request) {
	s.svc.ServeHTTP(&conditionalWriter{ResponseWriter: w, metrics: s.metrics,
		ifNoneMatch: r.Header.Get("If-None-Match")}, r)
}

// etagMatch implements If-None-Match: a comma-separated list of entity tags
// or "*". Weak-validator prefixes compare equal to their strong form (RFC
// 9110 §8.8.3.2 weak comparison, the correct one for If-None-Match).
func etagMatch(header, etag string) bool {
	for _, candidate := range strings.Split(header, ",") {
		candidate = strings.TrimSpace(candidate)
		if candidate == "" {
			continue
		}
		if candidate == "*" {
			return true
		}
		if strings.TrimPrefix(candidate, "W/") == strings.TrimPrefix(etag, "W/") {
			return true
		}
	}
	return false
}
