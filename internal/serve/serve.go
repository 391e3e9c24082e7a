// Package serve is the serving tier of paper §5: the front-end layer between
// the socket and the lookup/search read path, built for heavy concurrent
// query traffic. It wraps the lookup mux with
//
//   - per-tenant API keys carrying token-bucket rate limits and daily quotas
//     (both driven by the pipeline clock, so refill and reset schedules are
//     reproducible under the simulated clock),
//   - priority-aware admission control that sheds cheap-to-retry traffic
//     first under load — interactive search before bulk export before point
//     lookups — with Retry-After on every 429/503,
//   - snapshot-pinned bulk export (cursor-paginated JSON and streaming
//     NDJSON) whose pagination is byte-stable under concurrent writes, and
//   - ETag/If-None-Match conditional GETs on host point reads: the lookup
//     service writes the host's body and ETag as the read side rendered
//     them, once per journal version, and the tier turns a 200 whose ETag
//     the client already holds into a 304 as it is written — nothing is
//     buffered or hashed per request.
//
// The ops plane (GET /v2/metrics) bypasses authentication and admission so a
// saturated or misconfigured tier can still be observed.
package serve

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"censysmap/internal/lookup"
	"censysmap/internal/search"
	"censysmap/internal/simclock"
)

// Response headers added by the serving tier.
const (
	// TenantHeader names the authenticated tenant on every response.
	TenantHeader = "X-Censys-Tenant"
	// QuotaRemainingHeader reports the requests left in the tenant's daily
	// quota after this one. Absent for unlimited tiers.
	QuotaRemainingHeader = "X-Censys-Quota-Remaining"
	// ShedClassHeader names the admission class of a load-shed request.
	ShedClassHeader = "X-Censys-Shed-Class"
	// ExportGenerationHeader stamps export responses with the index
	// generation the export snapshot was pinned at.
	ExportGenerationHeader = "X-Censys-Export-Generation"
	// ExportTotalHeader reports the pinned export's total row count.
	ExportTotalHeader = "X-Censys-Export-Total"
)

// Class is a request's admission class, ordered by shed priority: the
// highest value sheds first.
type Class int

const (
	// ClassLookup covers point reads — host, history, certificate-to-hosts.
	// They are the cheapest requests and the last to shed.
	ClassLookup Class = iota
	// ClassExport covers bulk export pages and streams.
	ClassExport
	// ClassSearch covers interactive search: the fan-out over every index
	// partition, the most expensive request per admission slot and the
	// first to shed.
	ClassSearch
)

func (c Class) String() string {
	switch c {
	case ClassLookup:
		return "lookup"
	case ClassExport:
		return "export"
	case ClassSearch:
		return "search"
	}
	return "unknown"
}

// classify maps a request path to its admission class.
func classify(r *http.Request) Class {
	switch {
	case r.URL.Path == "/v2/hosts/search":
		return ClassSearch
	case strings.HasPrefix(r.URL.Path, "/v2/export/"):
		return ClassExport
	}
	return ClassLookup
}

// TierLimits are one tier's traffic allowances. The zero value is fully
// unlimited (the "internal" tier).
type TierLimits struct {
	// RatePerSec is the token bucket's sustained refill rate. Zero together
	// with Burst zero disables rate limiting.
	RatePerSec float64
	// Burst is the bucket capacity: the number of back-to-back requests a
	// tenant can issue from a full bucket.
	Burst int
	// DailyQuota caps admitted requests per simulated UTC day; zero is
	// unlimited. Rate-limited requests are not charged.
	DailyQuota int
}

// unlimited reports whether the tier carries no token bucket at all.
func (t TierLimits) unlimited() bool { return t.RatePerSec <= 0 && t.Burst <= 0 }

// Tiers are the built-in tenant tiers. A Tenant may override them with
// explicit Limits.
var Tiers = map[string]TierLimits{
	"free":       {RatePerSec: 1, Burst: 5, DailyQuota: 100},
	"standard":   {RatePerSec: 10, Burst: 50, DailyQuota: 10_000},
	"enterprise": {RatePerSec: 100, Burst: 500, DailyQuota: 1_000_000},
	"internal":   {}, // unlimited: benchmarks, replication peers, operators
}

// Tenant configures one API key.
type Tenant struct {
	// Key is the API key presented in Authorization: Bearer <key> or
	// X-Censys-API-Key.
	Key string
	// Name identifies the tenant in headers and telemetry labels.
	Name string
	// Tier names an entry in Tiers. Ignored when Limits is set.
	Tier string
	// Limits, when non-nil, overrides the tier table for this tenant.
	Limits *TierLimits
}

// Config configures the serving tier.
type Config struct {
	// Tenants are the accepted API keys.
	Tenants []Tenant
	// AnonymousTier, when non-empty, names the tier unauthenticated
	// requests are served under (they share one "anonymous" bucket). Empty
	// rejects unauthenticated requests with 401.
	AnonymousTier string
	// Capacity is the maximum number of concurrently admitted requests;
	// admission thresholds for shedding are fractions of it. Default 64.
	Capacity int
	// PageSize is the default export page size. Default 100, capped at
	// MaxPageSize.
	PageSize int
}

// MaxPageSize caps ?per_page on the paginated export endpoint.
const MaxPageSize = 1000

// Server is the serving tier: an http.Handler wrapping the lookup service.
type Server struct {
	cfg     Config
	svc     *lookup.Service
	clock   simclock.Clock
	tenants map[string]*tenantState // by API key
	anon    *tenantState            // nil unless AnonymousTier is set
	adm     *admission
	exp     *exporter
	metrics *serveMetrics // nil until AttachMetrics
}

// New builds the serving tier over the lookup service and the search index
// the export endpoints read. The clock drives rate-limit refill, quota
// windows, and pin timestamps — under the simulated clock every admission
// decision is a pure function of the request schedule.
func New(cfg Config, svc *lookup.Service, ix *search.Index, clock simclock.Clock) (*Server, error) {
	if svc == nil || ix == nil || clock == nil {
		return nil, errors.New("serve: need lookup service, search index, and clock")
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 64
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 100
	}
	if cfg.PageSize > MaxPageSize {
		cfg.PageSize = MaxPageSize
	}
	s := &Server{
		cfg:     cfg,
		svc:     svc,
		clock:   clock,
		tenants: make(map[string]*tenantState, len(cfg.Tenants)),
		adm:     newAdmission(cfg.Capacity),
		exp:     newExporter(ix),
	}
	for _, t := range cfg.Tenants {
		if t.Key == "" || t.Name == "" {
			return nil, fmt.Errorf("serve: tenant %q needs both key and name", t.Name)
		}
		if _, dup := s.tenants[t.Key]; dup {
			return nil, fmt.Errorf("serve: duplicate API key for tenant %q", t.Name)
		}
		lim, err := resolveLimits(t.Tier, t.Limits)
		if err != nil {
			return nil, fmt.Errorf("serve: tenant %q: %w", t.Name, err)
		}
		s.tenants[t.Key] = &tenantState{name: t.Name, lim: lim}
	}
	if cfg.AnonymousTier != "" {
		lim, err := resolveLimits(cfg.AnonymousTier, nil)
		if err != nil {
			return nil, fmt.Errorf("serve: anonymous tier: %w", err)
		}
		s.anon = &tenantState{name: "anonymous", lim: lim}
	}
	return s, nil
}

func resolveLimits(tier string, override *TierLimits) (TierLimits, error) {
	if override != nil {
		return *override, nil
	}
	lim, ok := Tiers[tier]
	if !ok {
		return TierLimits{}, fmt.Errorf("unknown tier %q", tier)
	}
	return lim, nil
}

// authenticate resolves the request's tenant from Authorization: Bearer or
// X-Censys-API-Key, falling back on the anonymous tenant when configured.
func (s *Server) authenticate(r *http.Request) *tenantState {
	key := r.Header.Get("X-Censys-API-Key")
	if auth := r.Header.Get("Authorization"); key == "" && strings.HasPrefix(auth, "Bearer ") {
		key = strings.TrimPrefix(auth, "Bearer ")
	}
	if key == "" {
		return s.anon
	}
	return s.tenants[key]
}

// errorBody mirrors the lookup service's error envelope so every /v2 error,
// wherever it is produced, has one shape.
type errorBody struct {
	Error string `json:"error"`
}

// ServeHTTP authenticates, rate-limits, and admits the request, then
// dispatches: export endpoints are served here behind the lookup service's
// fan-out guard (a missing partition is a 503, as for search), host point
// reads go through the conditional-GET wrapper, everything else forwards to
// the lookup mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v2/metrics" {
		// Ops plane: never gated, or an overloaded tier could not be observed.
		s.svc.ServeHTTP(w, r)
		return
	}
	class := classify(r)
	ten := s.authenticate(r)
	if ten == nil {
		s.metrics.unauthorizedInc()
		writeJSON(w, http.StatusUnauthorized,
			errorBody{"missing or unknown API key (Authorization: Bearer <key> or X-Censys-API-Key)"})
		return
	}
	w.Header().Set(TenantHeader, ten.name)
	remaining, denied := ten.admit(s.clock.Now())
	if remaining >= 0 {
		w.Header().Set(QuotaRemainingHeader, strconv.Itoa(remaining))
	}
	if denied != nil {
		s.metrics.deniedInc(ten.name, denied.quota)
		w.Header().Set("Retry-After", strconv.Itoa(denied.retryAfter))
		writeJSON(w, http.StatusTooManyRequests, errorBody{denied.reason})
		return
	}
	if !s.adm.acquire(class) {
		s.metrics.shedInc(class)
		w.Header().Set("Retry-After", strconv.Itoa(shedRetryAfter))
		w.Header().Set(ShedClassHeader, class.String())
		writeJSON(w, http.StatusServiceUnavailable,
			errorBody{"overloaded: " + class.String() + " requests are being shed; retry later"})
		return
	}
	defer s.adm.release()
	s.metrics.requestInc(class)

	switch {
	case r.URL.Path == "/v2/export/hosts":
		if s.svc.GuardFanout(w, "export") {
			s.handleExportPage(w, r)
		}
	case r.URL.Path == "/v2/export/hosts/stream":
		if s.svc.GuardFanout(w, "export") {
			s.handleExportStream(w, r)
		}
	case class == ClassLookup && r.Method == http.MethodGet && isHostPointRead(r.URL.Path):
		s.conditionalHost(w, r)
	default:
		s.svc.ServeHTTP(w, r)
	}
}

// shedRetryAfter is the Retry-After hint (seconds) on load-shed responses:
// overload is transient on the admission timescale, so retry soon.
const shedRetryAfter = 1

// isHostPointRead reports whether the path is exactly /v2/hosts/{ip} — the
// route carrying ETag/If-None-Match semantics. History, search, and every
// other multi-segment path are excluded.
func isHostPointRead(path string) bool {
	rest, ok := strings.CutPrefix(path, "/v2/hosts/")
	if !ok || rest == "" || rest == "search" {
		return false
	}
	return !strings.Contains(rest, "/")
}

// ceilSeconds rounds a duration up to whole seconds for Retry-After, at
// least 1 (a Retry-After of 0 invites an immediate, pointless retry).
func ceilSeconds(d time.Duration) int {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}
