// Package lookup implements the Fast Lookup API of paper §5.3: a REST
// surface over the read-side storage for high-throughput lookups by entity
// ID and timestamp ("what did IP A look like at time B?", "what IPs has
// certificate X been seen on?"). Point lookups are backed directly by the
// journal, so they are cheap point reads: a host read serves the reader's
// body for the row's current version (cqrs.Reader.HostJSON) with its ETag;
// search and the certificate pivot read the search index (AttachSearch).
package lookup

import (
	"encoding/json"
	"net/http"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"censysmap/internal/cqrs"
	"censysmap/internal/entity"
	"censysmap/internal/search"
	"censysmap/internal/shard"
	"censysmap/internal/simclock"
)

// DegradedHeader is set on every response while the backing map serves in
// degraded mode: storage recovery quarantined partitions, or — under a
// cluster placement — partitions whose replica quorum is below majority or
// whose serving replica lags the replication log. Its value names the
// affected partitions, e.g. "quarantined-partitions=2,5/8" or
// "degraded-quorum-partitions=1,3/8".
const DegradedHeader = "X-Censys-Degraded"

// ServingNodeHeader names the cluster node whose replica answered a routed
// point lookup. Absent when no placement is installed (the classic
// single-process deployment).
const ServingNodeHeader = "X-Censys-Serving-Node"

// Route is one partition's serving state under a placement.
type Route struct {
	// Node names the serving replica's node.
	Node string
	// Degraded reports a partition served below its safety margin: fewer
	// alive replicas than a majority of the replication factor, or a serving
	// replica still catching up on the replication log.
	Degraded bool
	// Unserved reports that no alive replica can answer for the partition;
	// lookups for its entities get 503, and fan-out queries fail whole.
	Unserved bool
}

// Placement routes partitions to serving nodes. The cluster layer implements
// it over its placement map and leases; a single-node deployment uses the
// degenerate implementation in internal/core, which routes every partition to
// the local node and never degrades.
type Placement interface {
	// Partitions is the placement's partition space (the journal stripe
	// count entity IDs hash into).
	Partitions() int
	// Route reports the serving state of one partition.
	Route(partition int) Route
	// ReaderFor returns the serving replica's read path for a partition, or
	// nil to fall back on the service's own reader (the local journal).
	ReaderFor(partition int) *cqrs.Reader
}

// Service answers lookups; it is both a Go API and an http.Handler.
type Service struct {
	reader *cqrs.Reader
	clock  simclock.Clock
	mux    *http.ServeMux
	index  *search.Index
	// metrics is the optional telemetry hookup (see AttachMetrics).
	metrics *svcMetrics

	// Degraded-mode state (see SetDegraded): quarantined partition set,
	// the partition space it indexes, and the precomputed header value.
	degradedParts map[int]bool
	degradedMod   int
	degradedVal   string

	// placement, when set, routes point lookups to the serving replica's
	// reader and folds quorum health into the degraded header (see
	// SetPlacement).
	placement Placement
}

// New creates a lookup service.
func New(reader *cqrs.Reader, clock simclock.Clock) *Service {
	s := &Service{reader: reader, clock: clock}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v2/hosts/{ip}", s.handleHost)
	mux.HandleFunc("GET /v2/hosts/{ip}/history", s.handleHistory)
	s.mux = mux
	return s
}

// AttachSearch registers the two fan-out reads backed by the search index:
// interactive search (GET /v2/hosts/search?q=<query>[&limit=n]) and the
// certificate→hosts pivot (GET /v2/certificates/{fp}/hosts). Search result
// hosts are the index documents' rendered JSON (search.HostsJSON), written
// verbatim into the envelope: nothing is cloned or re-encoded.
func (s *Service) AttachSearch(ix *search.Index) {
	s.index = ix
	s.mux.HandleFunc("GET /v2/hosts/search", s.handleSearch)
	s.mux.HandleFunc("GET /v2/certificates/{fp}/hosts", s.handleCertHosts)
}

// Host returns the host record as of the given time (zero time = now).
func (s *Service) Host(ip netip.Addr, at time.Time) (*entity.Host, bool) {
	if at.IsZero() {
		at = s.clock.Now()
	}
	return s.reader.HostAt(ip.String(), at)
}

// CertHosts returns "ip port/transport" locators of the active services
// presenting the certificate fingerprint (search.Index.CertLocations), or nil
// before AttachSearch.
func (s *Service) CertHosts(fingerprint string) []string {
	if s.index == nil {
		return nil
	}
	return s.index.CertLocations(fingerprint)
}

// SetDegraded switches the service into degraded mode: every response
// carries DegradedHeader, and point lookups for entities in quarantined
// partitions answer 503 (honest unavailability) instead of 404 (a claim the
// host does not exist that the journal can no longer back).
func (s *Service) SetDegraded(parts []int, mod int) {
	if len(parts) == 0 || mod <= 0 {
		s.degradedParts, s.degradedMod, s.degradedVal = nil, 0, ""
		return
	}
	s.degradedParts = make(map[int]bool, len(parts))
	list := make([]string, len(parts))
	for i, p := range parts {
		s.degradedParts[p] = true
		list[i] = strconv.Itoa(p)
	}
	s.degradedMod = mod
	s.degradedVal = "quarantined-partitions=" + strings.Join(list, ",") + "/" + strconv.Itoa(mod)
}

// quarantined reports whether an entity ID falls in a quarantined partition.
func (s *Service) quarantined(id string) bool {
	return s.degradedParts != nil && s.degradedParts[shard.Of(id, s.degradedMod)]
}

// SetPlacement installs (or, with nil, clears) a partition placement. With a
// placement installed point lookups route to the serving replica's reader,
// responses name that replica in ServingNodeHeader, and partitions with a
// weak or absent quorum surface in DegradedHeader alongside quarantine state.
func (s *Service) SetPlacement(p Placement) { s.placement = p }

// routeFor resolves an entity ID under the installed placement. routed is
// false when no placement is installed; the reader is never nil — a placement
// that declines to provide one falls back on the service's own.
func (s *Service) routeFor(id string) (rt Route, reader *cqrs.Reader, routed bool) {
	if s.placement == nil {
		return Route{}, s.reader, false
	}
	part := shard.Of(id, s.placement.Partitions())
	rt = s.placement.Route(part)
	reader = s.placement.ReaderFor(part)
	if reader == nil {
		reader = s.reader
	}
	return rt, reader, true
}

// degradedValue combines quarantine state and placement quorum health into
// the DegradedHeader value. Empty means fully healthy.
func (s *Service) degradedValue() string {
	fields := make([]string, 0, 3)
	if s.degradedVal != "" {
		fields = append(fields, s.degradedVal)
	}
	if s.placement != nil {
		n := s.placement.Partitions()
		var deg, uns []string
		for p := 0; p < n; p++ {
			rt := s.placement.Route(p)
			switch {
			case rt.Unserved:
				uns = append(uns, strconv.Itoa(p))
			case rt.Degraded:
				deg = append(deg, strconv.Itoa(p))
			}
		}
		if len(deg) > 0 {
			fields = append(fields, "degraded-quorum-partitions="+strings.Join(deg, ",")+"/"+strconv.Itoa(n))
		}
		if len(uns) > 0 {
			fields = append(fields, "unserved-partitions="+strings.Join(uns, ",")+"/"+strconv.Itoa(n))
		}
	}
	return strings.Join(fields, "; ")
}

// fanoutUnavailable lists partitions that cannot contribute to a fan-out
// query (interactive search, certificate→hosts): quarantined by storage
// recovery or unserved under the placement. A fan-out answer is only
// trustworthy when every partition can answer, so any entry here turns the
// whole query into 503 (paper §5.2: partial answers are presented as
// complete, which is worse than honest unavailability).
func (s *Service) fanoutUnavailable() []int {
	var parts []int
	for p := 0; p < s.degradedMod; p++ {
		if s.degradedParts[p] {
			parts = append(parts, p)
		}
	}
	if s.placement != nil {
		for p := 0; p < s.placement.Partitions(); p++ {
			if s.placement.Route(p).Unserved && !s.degradedParts[p] {
				parts = append(parts, p)
			}
		}
	}
	sort.Ints(parts)
	return parts
}

// GuardFanout admits a fan-out query: it sets DegradedHeader as ServeHTTP
// does, and when a partition cannot contribute it writes the 503 and
// reports false. Fan-out handlers outside this service's mux (export) call
// it too, so every fan-out refuses alike.
func (s *Service) GuardFanout(w http.ResponseWriter, what string) bool {
	if v := s.degradedValue(); v != "" {
		w.Header().Set(DegradedHeader, v)
	}
	parts := s.fanoutUnavailable()
	if len(parts) == 0 {
		return true
	}
	list := make([]string, len(parts))
	for i, p := range parts {
		list[i] = strconv.Itoa(p)
	}
	writeJSON(w, http.StatusServiceUnavailable, errorBody{
		what + " fans out over all partitions; unavailable: " + strings.Join(list, ",")})
	return false
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// parseAt reads the optional ?at= RFC3339 timestamp.
func (s *Service) parseAt(r *http.Request) (time.Time, bool) {
	q := r.URL.Query().Get("at")
	if q == "" {
		return s.clock.Now(), true
	}
	t, err := time.Parse(time.RFC3339, q)
	if err != nil {
		return time.Time{}, false
	}
	return t, true
}

func (s *Service) handleHost(w http.ResponseWriter, r *http.Request) {
	ip, err := netip.ParseAddr(r.PathValue("ip"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{"invalid ip"})
		return
	}
	at, ok := s.parseAt(r)
	if !ok {
		writeJSON(w, http.StatusBadRequest, errorBody{"invalid at timestamp (RFC3339)"})
		return
	}
	id := ip.String()
	if s.quarantined(id) {
		writeJSON(w, http.StatusServiceUnavailable,
			errorBody{"host partition quarantined; serving degraded"})
		return
	}
	rt, reader, routed := s.routeFor(id)
	if routed {
		w.Header().Set(ServingNodeHeader, rt.Node)
		if rt.Unserved {
			writeJSON(w, http.StatusServiceUnavailable,
				errorBody{"host partition unserved; no in-sync replica"})
			return
		}
	}
	body, etag, found := reader.HostJSON(id, at)
	if !found {
		writeJSON(w, http.StatusNotFound, errorBody{"host not found"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", etag)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // the client has gone if this fails
}

func (s *Service) handleHistory(w http.ResponseWriter, r *http.Request) {
	ip, err := netip.ParseAddr(r.PathValue("ip"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{"invalid ip"})
		return
	}
	if s.quarantined(ip.String()) {
		writeJSON(w, http.StatusServiceUnavailable,
			errorBody{"host partition quarantined; serving degraded"})
		return
	}
	rt, reader, routed := s.routeFor(ip.String())
	if routed {
		w.Header().Set(ServingNodeHeader, rt.Node)
		if rt.Unserved {
			writeJSON(w, http.StatusServiceUnavailable,
				errorBody{"host partition unserved; no in-sync replica"})
			return
		}
	}
	// The journal stores binary payloads; JSON is rendered here, at the edge
	// (cqrs.AppendEventJSON has the entry's wire form).
	body := []byte{'['}
	for i, ev := range reader.History(ip.String()) {
		if i > 0 {
			body = append(body, ',')
		}
		if body, err = cqrs.AppendEventJSON(body, ev); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{err.Error()})
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(body, ']', '\n')) // the client has gone if this fails
}

func (s *Service) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{"missing q parameter"})
		return
	}
	limit := 0
	if l := r.URL.Query().Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{"invalid limit"})
			return
		}
		limit = n
	}
	if !s.GuardFanout(w, "search") {
		return
	}
	// IDs first, hosts second: a limited search merges and fetches only the
	// hosts it will return — the total is the summed per-partition count.
	ids, total, err := s.index.SearchPage(q, limit)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return
	}
	hosts, err := s.index.HostsJSON(ids)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{err.Error()})
		return
	}
	// The bytes encoding/json makes of {"query", "total", "hosts"} as a map:
	// keys sorted, each host as rendered, the query through json.Marshal for
	// the same HTML and invalid-UTF-8 escaping, a trailing newline. They are
	// assembled in a pooled buffer and written at once, so a page allocates
	// no body of its own.
	query, _ := json.Marshal(q) // a string always marshals
	size := 64 + len(query)     // the envelope fits in 64 bytes
	for _, h := range hosts {
		size += len(h) + 1
	}
	bp := bodyPool.Get().(*[]byte)
	body := (*bp)[:0]
	if cap(body) < size {
		body = make([]byte, 0, size)
	}
	body = append(body, `{"hosts":[`...)
	for i, h := range hosts {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, h...)
	}
	body = append(append(body, `],"query":`...), query...)
	body = strconv.AppendInt(append(body, `,"total":`...), int64(total), 10)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(body, '}', '\n')) // the client has gone if this fails
	if cap(body) <= maxPooledBody {
		*bp = body
		bodyPool.Put(bp)
	}
}

// bodyPool keeps search bodies' buffers between requests. A buffer over
// maxPooledBody (an unlimited search's) is left to the collector rather than
// held: a limit=25 page is ~8 KB.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 64 << 10

func (s *Service) handleCertHosts(w http.ResponseWriter, r *http.Request) {
	fp := strings.ToLower(r.PathValue("fp"))
	if fp == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{"missing fingerprint"})
		return
	}
	if !s.GuardFanout(w, "certificate-to-hosts") {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"fingerprint": fp,
		"hosts":       s.CertHosts(fp),
	})
}
