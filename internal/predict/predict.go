// Package predict implements the predictive scan engine (paper §4.1): a
// GPS-style two-stage model (Izhikevich et al., SIGCOMM 2022) that learns
// service deployment patterns from interrogation results and recommends
// probable (address, port) locations to probe, plus the eviction
// re-injection queue of §4.6: services pruned from the dataset are retried
// for 60 days so hard-to-find services that return are recovered quickly.
//
// The model is two-stage, continuously trained — the paper stresses that
// operating over months on an evolving dataset is a different problem from
// one-shot prediction:
//
//   - Stage 1, priors: per-port popularity across all known hosts
//     (portHosts / hosts). Priors rank candidates of equal conditional
//     likelihood; a port never seen anywhere has prior zero and is never
//     proposed.
//   - Stage 2, conditional refinement: the prior is replaced by the
//     strongest conditional likelihood available for the specific host —
//     cross-/24 network locality P(p | host's /24) = net24Ports[/24][p] /
//     hosts-in-/24 (shared operator, shared images), or cross-port
//     co-occurrence P(p | host runs q) = cooc[q][p] / portHosts[q]
//     (80 & 443, ICS pairs, management consoles). Candidates below
//     Config.MinScore are discarded, bounding wasted probes.
//
// Candidate order comes from the topology selector (see Topology): budget is
// spent over /24s in service-density rank, and a share of it
// (Config.ExpandFraction) goes to "expansion" — unobserved addresses inside
// dense /24s probed on the /24's dominant ports, which is how the model
// grows past the hosts exhaustive scanning happened to find first.
//
// All model state is commutative counts, so the concurrent Observe calls
// from interrogation workers produce identical state in any arrival order;
// Recommend runs serially on the tick coordinator. State/Restore round-trip
// the model through the core checkpoint for crash recovery; every count that
// is a function of the host-port map is rebuilt rather than stored.
package predict

import (
	"cmp"
	"maps"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"time"

	"censysmap/internal/draw"
	"censysmap/internal/entity"
)

// Target is a recommended probe location.
type Target struct {
	Addr      netip.Addr
	Port      uint16
	Transport entity.Transport
	// Reason tags the signal that produced the recommendation: "net24",
	// "cooc", "expand", or "reinject".
	Reason string
}

// Config tunes the engine.
type Config struct {
	// Cooldown suppresses re-recommending a target.
	Cooldown time.Duration
	// ReinjectFor is how long evicted services stay in the retry queue
	// (the paper's 60 days).
	ReinjectFor time.Duration
	// ReinjectEvery is the retry cadence for evicted services.
	ReinjectEvery time.Duration
	// TopK bounds how many candidate ports are considered per signal.
	TopK int
	// MinScore is the stage-2 conditional-likelihood floor a candidate must
	// clear to be recommended. Raising it trades recall for precision.
	MinScore float64
	// ExpandFraction is the share of each Recommend budget reserved for
	// topology expansion: probing unobserved addresses inside dense /24s on
	// the prefix's dominant ports. 0 disables expansion.
	ExpandFraction float64
	// MinExpandHosts is the observed-host floor before a /24 qualifies for
	// expansion (one lone host says nothing about its neighbors).
	MinExpandHosts int
}

// DefaultConfig matches the paper's parameters.
func DefaultConfig() Config {
	return Config{
		Cooldown:       24 * time.Hour,
		ReinjectFor:    60 * 24 * time.Hour,
		ReinjectEvery:  24 * time.Hour,
		TopK:           8,
		MinScore:       0.2,
		ExpandFraction: 0.25,
		MinExpandHosts: 2,
	}
}

// Engine is the predictive model state. It is fed concurrently by the
// interrogation workers, so all methods lock; each /24's hosts are kept
// address-sorted so the Recommend order never depends on observation arrival
// order.
type Engine struct {
	mu  sync.Mutex
	cfg Config

	// net24Ports counts hosts per (/24, port) currently known to run the
	// port (the cross-/24 conditional's numerator).
	net24Ports map[netip.Addr]map[uint16]int
	// cooc counts host-pair events where ports q and p were both confirmed
	// (cumulative co-occurrence evidence; never decremented).
	cooc map[uint16]map[uint16]int
	// fullHosts marks hosts whose complete 65K port state has been observed
	// (the seed sample). Conditional likelihoods are estimated on this sample:
	// on a partially scanned host a missing port is censored data, not a
	// negative, so dividing by all hosts running q would bury every
	// tail-port association under hosts whose tail was never probed.
	fullHosts map[netip.Addr]bool
	// fullCooc / fullPortHosts restrict the co-occurrence counts to the
	// fully scanned sample: P(p|q) = fullCooc[q][p] / fullPortHosts[q].
	// Cumulative, like cooc — eviction is churn, not counter-evidence.
	fullCooc      map[uint16]map[uint16]int
	fullPortHosts map[uint16]int
	// hostPorts tracks confirmed ports per host (model input).
	hostPorts map[netip.Addr]map[uint16]entity.Transport
	// portHosts counts hosts currently running each port (the stage-1
	// prior's numerator and both conditionals' denominator).
	portHosts map[uint16]int
	// topo holds the exclusion subtrees and ranks /24s by density.
	topo Topology
	// suggested is the per-target cooldown clock. Recommend sweeps expired
	// entries, so residency is bounded by the targets suggested within one
	// Cooldown window.
	suggested map[Target]time.Time
	// evicted is the re-injection queue.
	evicted map[Target]evictedEntry

	cursor       int // rotation over ranked /24s (conditional refinement)
	expandCursor int // rotation over ranked /24s (topology expansion)
	// hosts24 lists each populated /24's member hosts, address-sorted. A /24
	// stays listed after its last port is evicted.
	hosts24 map[netip.Addr][]netip.Addr
	// ranked caches topo.Ranked over hosts24 and net24Ports; every change to
	// either, or to the exclusions, resets it to nil.
	ranked []netip.Addr

	// Derived state, never serialized: each count map's best ports (see
	// top), built lazily by Recommend and dropped by the one mutation that
	// changes that map's counts. Refresh observations change no count, so a
	// steady model answers Recommend without rebuilding any list.
	top24   map[netip.Addr][]portCount // of net24Ports[/24]
	topCooc map[uint16][]portCount     // of cooc[q]
	topFull map[uint16][]portCount     // of fullCooc[q]
	// Recommend's reusable scratch (it runs serially under mu).
	cands []scored
	qs    []uint16
	dense []uint16
}

type evictedEntry struct {
	at        time.Time
	lastRetry time.Time
}

// New creates an engine.
func New(cfg Config) *Engine {
	if cfg.TopK <= 0 {
		cfg.TopK = 8
	}
	return &Engine{
		cfg:           cfg,
		net24Ports:    make(map[netip.Addr]map[uint16]int),
		cooc:          make(map[uint16]map[uint16]int),
		fullHosts:     make(map[netip.Addr]bool),
		fullCooc:      make(map[uint16]map[uint16]int),
		fullPortHosts: make(map[uint16]int),
		hostPorts:     make(map[netip.Addr]map[uint16]entity.Transport),
		portHosts:     make(map[uint16]int),
		hosts24:       make(map[netip.Addr][]netip.Addr),
		suggested:     make(map[Target]time.Time),
		evicted:       make(map[Target]evictedEntry),
		top24:         make(map[netip.Addr][]portCount),
		topCooc:       make(map[uint16][]portCount),
		topFull:       make(map[uint16][]portCount),
	}
}

// Observe feeds one confirmed service into the models. Call it for every
// interrogation that verified a service (from any scan class). Non-IPv4
// addresses are ignored: the scan universe is IPv4, and the /24 locality
// signal has no meaning for them.
func (e *Engine) Observe(addr netip.Addr, port uint16, transport entity.Transport) {
	n24 := draw.Net24(addr)
	if !n24.IsValid() {
		return
	}
	addr = addr.Unmap()
	e.mu.Lock()
	defer e.mu.Unlock()
	hp := e.hostPorts[addr]
	if hp == nil {
		hp = make(map[uint16]entity.Transport)
		e.hostPorts[addr] = hp
		// Sorted insert: the rotation order over hosts must be a function of
		// which hosts are known, not of the order observations arrived in.
		members := e.hosts24[n24]
		if members == nil {
			e.hosts24[n24] = []netip.Addr{addr}
		} else {
			insertSortedAddr(&members, addr)
			e.hosts24[n24] = members
		}
		e.ranked = nil
	}
	if _, known := hp[port]; !known {
		for q := range hp {
			if q == port {
				continue
			}
			e.bump(q, port)
			e.bump(port, q)
		}
		if e.fullHosts[addr] {
			e.fullPortHosts[port]++
			for q := range hp {
				if q == port {
					continue
				}
				e.bumpFull(q, port)
				e.bumpFull(port, q)
			}
		}
		m := e.net24Ports[n24]
		if m == nil {
			m = make(map[uint16]int)
			e.net24Ports[n24] = m
		}
		m[port]++
		delete(e.top24, n24)
		e.portHosts[port]++
		e.ranked = nil
	}
	hp[port] = transport
}

func insertSortedAddr(s *[]netip.Addr, addr netip.Addr) {
	i := sort.Search(len(*s), func(i int) bool { return !(*s)[i].Less(addr) })
	*s = append(*s, netip.Addr{})
	copy((*s)[i+1:], (*s)[i:])
	(*s)[i] = addr
}

func (e *Engine) bump(q, p uint16) {
	m := e.cooc[q]
	if m == nil {
		m = make(map[uint16]int)
		e.cooc[q] = m
	}
	m[p]++
	delete(e.topCooc, q)
}

func (e *Engine) bumpFull(q, p uint16) {
	m := e.fullCooc[q]
	if m == nil {
		m = make(map[uint16]int)
		e.fullCooc[q] = m
	}
	m[p]++
	delete(e.topFull, q)
}

// ObserveFull marks a host as fully scanned (all 65K ports probed, e.g. by
// the one-time seed scan): its subsequent Observe stream is a complete
// picture, so its port pairs enter the sample-conditioned co-occurrence
// estimate. Call it before feeding the host's observations. Ports already
// known for the host are incorporated immediately.
func (e *Engine) ObserveFull(addr netip.Addr) {
	a := addr.Unmap()
	if !a.Is4() {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fullHosts[a] {
		return
	}
	e.fullHosts[a] = true
	ports := make([]uint16, 0, len(e.hostPorts[a]))
	for p := range e.hostPorts[a] {
		ports = append(ports, p)
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
	for i, p := range ports {
		e.fullPortHosts[p]++
		for _, q := range ports[:i] {
			e.bumpFull(q, p)
			e.bumpFull(p, q)
		}
	}
}

// SetExcluded replaces the exclusion subtrees: no recommendation — refined
// or expanded — is ever emitted inside an excluded prefix, and covered /24s
// drop out of the topology ranking entirely.
func (e *Engine) SetExcluded(prefixes []netip.Prefix) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.topo.SetExcluded(prefixes)
	e.ranked = nil
}

// Stats is a point-in-time model summary (telemetry input).
type Stats struct {
	// KnownHosts is the model's training-set size.
	KnownHosts int
	// TrackedPrefixes counts the /24s holding a known host.
	TrackedPrefixes int
	// SuggestedResident is the cooldown book's current size (bounded: one
	// Cooldown window of suggestions).
	SuggestedResident int
	// PendingReinjections is the eviction retry queue depth.
	PendingReinjections int
}

// ModelStats reports the engine's current size counters.
func (e *Engine) ModelStats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		KnownHosts:          len(e.hostPorts),
		TrackedPrefixes:     len(e.hosts24),
		SuggestedResident:   len(e.suggested),
		PendingReinjections: len(e.evicted),
	}
}

// Recommend returns up to budget probable service locations not currently
// known, visiting /24s in topology density rank. The budget splits between
// conditional refinement on known hosts and topology expansion into
// unobserved neighbor addresses; both honour the cooldown and the exclusion
// subtrees. Expired cooldown entries are swept first, so the suggestion book
// stays bounded by one Cooldown window.
func (e *Engine) Recommend(now time.Time, budget int) []Target {
	e.mu.Lock()
	defer e.mu.Unlock()
	for tgt, at := range e.suggested {
		if now.Sub(at) >= e.cfg.Cooldown {
			delete(e.suggested, tgt)
		}
	}
	if budget <= 0 || len(e.hostPorts) == 0 {
		return nil
	}
	ranked := e.rank()
	if len(ranked) == 0 {
		return nil
	}

	expandBudget := int(float64(budget) * e.cfg.ExpandFraction)
	refineBudget := budget - expandBudget
	var out []Target

	// Phase 1 — conditional refinement: known hosts inside ranked /24s get
	// their strongest-likelihood missing ports, rotating the starting prefix
	// so every dense /24 gets a turn across ticks.
	visited := 0
	for visited < len(ranked) && len(out) < refineBudget {
		base := ranked[(e.cursor+visited)%len(ranked)]
		visited++
		for _, addr := range e.hosts24[base] {
			if len(out) >= refineBudget {
				break
			}
			known := e.hostPorts[addr]
			for _, cand := range e.candidatesFor(base, known) {
				if len(out) >= refineBudget {
					break
				}
				e.emit(&out, Target{Addr: addr, Port: cand.port,
					Transport: entity.TCP, Reason: cand.reason}, known, now)
			}
		}
	}
	e.cursor = (e.cursor + visited) % len(ranked)

	// Phase 2 — topology expansion: unobserved addresses inside dense /24s,
	// probed on the prefix's dominant ports, in ascending address order. Any
	// refinement budget left over flows into expansion (len(out) gates on
	// the full budget).
	if expandBudget > 0 {
		scanned := 0
		for scanned < len(ranked) && len(out) < budget {
			base := ranked[(e.expandCursor+scanned)%len(ranked)]
			scanned++
			members := e.hosts24[base]
			if len(members) < e.cfg.MinExpandHosts {
				continue
			}
			ports := e.densePorts(base, len(members))
			if len(ports) == 0 {
				continue
			}
			for off := 1; off <= 254 && len(out) < budget; off++ {
				addr := addrAt(base, uint8(off))
				if _, seen := e.hostPorts[addr]; seen {
					continue
				}
				for _, p := range ports {
					if len(out) >= budget {
						break
					}
					e.emit(&out, Target{Addr: addr, Port: p,
						Transport: entity.TCP, Reason: "expand"}, nil, now)
				}
			}
		}
		e.expandCursor = (e.expandCursor + scanned) % len(ranked)
	}
	return out
}

// rank returns the /24s in density order, ranking them again only after a
// change reset the cache.
func (e *Engine) rank() []netip.Addr {
	if e.ranked == nil {
		e.ranked = e.topo.Ranked(e.hosts24, e.net24Ports)
	}
	return e.ranked
}

// emit appends tgt if it passes the gates every recommendation must clear:
// the port is not already known on the host, the address is outside every
// exclusion subtree, and the target is not cooling down.
func (e *Engine) emit(out *[]Target, tgt Target, known map[uint16]entity.Transport, now time.Time) {
	if _, dup := known[tgt.Port]; dup {
		return
	}
	if !e.topo.Allowed(tgt.Addr) {
		return
	}
	if _, cooling := e.suggested[tgt]; cooling {
		return
	}
	e.suggested[tgt] = now
	*out = append(*out, tgt)
}

// addrAt returns base's /24 member at the given final octet.
func addrAt(base netip.Addr, off uint8) netip.Addr {
	b := base.As4()
	b[3] = off
	return netip.AddrFrom4(b)
}

// densePorts returns the /24's dominant ports for expansion: conditional
// frequency at least max(MinScore, 0.5) — expansion probes addresses with no
// evidence of a host, so only strong prefix-wide patterns justify it — best
// two by (frequency, port). The floor is monotone in the count, so they are
// the qualifying head of the /24's top list. The result is scratch, valid
// until the next call.
func (e *Engine) densePorts(base netip.Addr, members int) []uint16 {
	e.dense = e.dense[:0]
	if members == 0 {
		return nil
	}
	floor := max(e.cfg.MinScore, 0.5)
	for _, pc := range top(e, e.top24, base, e.net24Ports[base]) {
		if len(e.dense) == 2 || float64(pc.count)/float64(members) < floor {
			break
		}
		e.dense = append(e.dense, pc.port)
	}
	return e.dense
}

type scored struct {
	port   uint16
	score  float64 // strongest stage-2 conditional likelihood
	prior  float64 // stage-1 popularity (tiebreak)
	reason string
}

// upsert records one signal's likelihood for port p on the candidate
// scratch: the strongest signal wins, and on a tie the earlier one keeps the
// reason. A host has at most TopK × (1 + known ports) candidates, so the
// lookup is a short scan, not a map.
func (e *Engine) upsert(p uint16, count, denom int, reason string) {
	score := min(float64(count)/float64(denom), 1) // eviction keeps cooc cumulative; clamp the estimate
	for i := range e.cands {
		if s := &e.cands[i]; s.port == p {
			if score > s.score {
				s.score, s.reason = score, reason
			}
			return
		}
	}
	e.cands = append(e.cands, scored{port: p, score: score, reason: reason})
}

// candidatesFor runs the two-stage model for one host: every candidate port
// gets its strongest conditional likelihood (cross-/24 locality or cross-port
// co-occurrence), candidates below MinScore are dropped, and survivors rank
// by likelihood with the stage-1 prior as tiebreak. The result is scratch,
// valid until the next call.
func (e *Engine) candidatesFor(n24 netip.Addr, known map[uint16]entity.Transport) []scored {
	e.cands = e.cands[:0]
	k := e.cfg.TopK

	// Cross-/24 locality: P(p | host's /24).
	if members := len(e.hosts24[n24]); members > 0 {
		for _, pc := range head(top(e, e.top24, n24, e.net24Ports[n24]), k) {
			e.upsert(pc.port, pc.count, members, "net24")
		}
	}

	// Cross-port co-occurrence: P(p | host runs q), strongest q wins. The
	// estimate conditions on the fully scanned sample when it covers q —
	// partially scanned hosts censor their tail ports, so dividing by every
	// host running q would drown real tail-port associations. When no
	// fully scanned host runs q, fall back to the live counts. Known ports
	// iterate sorted so equal-likelihood reasons are deterministic.
	e.qs = e.qs[:0]
	for q := range known {
		e.qs = append(e.qs, q)
	}
	slices.Sort(e.qs)
	for _, q := range e.qs {
		if fn := e.fullPortHosts[q]; fn > 0 {
			for _, pc := range head(top(e, e.topFull, q, e.fullCooc[q]), k) {
				e.upsert(pc.port, pc.count, fn, "cooc")
			}
			continue
		}
		if qn := e.portHosts[q]; qn > 0 {
			for _, pc := range head(top(e, e.topCooc, q, e.cooc[q]), k) {
				e.upsert(pc.port, pc.count, qn, "cooc")
			}
		}
	}

	total := len(e.hostPorts)
	out := e.cands[:0]
	for _, s := range e.cands {
		if s.score < e.cfg.MinScore {
			continue
		}
		if total > 0 {
			s.prior = float64(e.portHosts[s.port]) / float64(total)
		}
		out = append(out, s)
	}
	slices.SortFunc(out, func(a, b scored) int {
		return cmp.Or(cmp.Compare(b.score, a.score), cmp.Compare(b.prior, a.prior),
			cmp.Compare(a.port, b.port))
	})
	return head(out, k)
}

type portCount struct {
	port  uint16
	count int
}

// head returns s's first k elements (all of s when it is shorter).
func head[T any](s []T, k int) []T {
	return s[:min(k, len(s))]
}

// top returns m's best ports by (count descending, port ascending) from
// cache, selecting them on first use after the entry was dropped. A list
// keeps TopK ports for candidatesFor, and never fewer than the two
// densePorts reads. Selection inserts into a bounded sorted window: one pass
// over m, no full sort, and — (count, port) being a total order — a result
// independent of map iteration order.
func top[K comparable](e *Engine, cache map[K][]portCount, key K, m map[uint16]int) []portCount {
	if list, ok := cache[key]; ok {
		return list
	}
	slots := max(e.cfg.TopK, 2)
	list := make([]portCount, 0, min(slots, len(m)))
	for p, c := range m {
		i := len(list)
		for i > 0 && (c > list[i-1].count || c == list[i-1].count && p < list[i-1].port) {
			i--
		}
		if i == slots {
			continue
		}
		if len(list) < slots {
			list = append(list, portCount{})
		}
		copy(list[i+1:], list[i:])
		list[i] = portCount{p, c}
	}
	cache[key] = list
	return list
}

// RecordEvicted queues an evicted service for re-injection and removes it
// from the live model: the prior and the /24 port counts, and so the /24's
// density, stop counting it (co-occurrence history stays — it is evidence,
// not state).
func (e *Engine) RecordEvicted(addr netip.Addr, port uint16, transport entity.Transport, now time.Time) {
	addr = addr.Unmap()
	e.mu.Lock()
	defer e.mu.Unlock()
	tgt := Target{Addr: addr, Port: port, Transport: transport, Reason: "reinject"}
	e.evicted[tgt] = evictedEntry{at: now}
	hp := e.hostPorts[addr]
	if hp == nil {
		return
	}
	if _, had := hp[port]; !had {
		return
	}
	delete(hp, port)
	if e.portHosts[port] > 1 {
		e.portHosts[port]--
	} else {
		delete(e.portHosts, port)
	}
	if n24 := draw.Net24(addr); n24.IsValid() {
		if m := e.net24Ports[n24]; m != nil {
			delete(e.top24, n24)
			if m[port] > 1 {
				m[port]--
			} else {
				delete(m, port)
				if len(m) == 0 {
					delete(e.net24Ports, n24)
				}
			}
		}
		e.ranked = nil
	}
}

// Reinjections returns evicted services due for a retry: each is retried on
// the ReinjectEvery cadence until ReinjectFor has elapsed since eviction.
// Targets inside exclusion subtrees are withheld (they stay queued: an
// exclusion can be rescinded before the retry window closes).
func (e *Engine) Reinjections(now time.Time) []Target {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Target
	for tgt, entry := range e.evicted {
		if now.Sub(entry.at) > e.cfg.ReinjectFor {
			delete(e.evicted, tgt)
			continue
		}
		if !entry.lastRetry.IsZero() && now.Sub(entry.lastRetry) < e.cfg.ReinjectEvery {
			continue
		}
		if !e.topo.Allowed(tgt.Addr) {
			continue
		}
		entry.lastRetry = now
		e.evicted[tgt] = entry
		out = append(out, tgt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr.Less(out[j].Addr)
		}
		return out[i].Port < out[j].Port
	})
	return out
}

// Resolve removes a target from the re-injection queue (it was found again).
func (e *Engine) Resolve(addr netip.Addr, port uint16, transport entity.Transport) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.evicted, Target{Addr: addr.Unmap(), Port: port, Transport: transport, Reason: "reinject"})
}

// SuggestedEntry is one cooldown-clock entry, exported for checkpointing.
type SuggestedEntry struct {
	Target Target
	At     time.Time
}

// EvictedState is one re-injection-queue entry, exported for checkpointing.
type EvictedState struct {
	Target    Target
	At        time.Time
	LastRetry time.Time
}

// State is the engine's serializable model state. The cooldown and
// re-injection books are canonically sorted slices, and every bulk field
// encodes as one binary checkpoint section (state.go). Everything counted per host — the stage-1
// priors, the per-/24 host lists and port counts the topology ranks by — is
// a view of HostPorts and is rebuilt on Restore; the exclusion subtrees
// belong to the engine's owner, which sets them with SetExcluded.
type State struct {
	Cooc      PortPairs `json:"cooc,omitempty"`
	HostPorts HostPorts `json:"host_ports,omitempty"`
	// FullHosts is the fully scanned sample; FullCooc/FullPortHosts are the
	// sample-conditioned co-occurrence counts.
	FullHosts     Hosts           `json:"full_hosts,omitempty"`
	FullCooc      SamplePortPairs `json:"full_cooc,omitempty"`
	FullPortHosts PortCounts      `json:"full_port_hosts,omitempty"`
	Suggested     Suggestions     `json:"suggested,omitempty"`
	Evicted       Evictions       `json:"evicted,omitempty"`
	Cursor        int             `json:"cursor"`
	// ExpandCursor is the expansion phase's rotation position.
	ExpandCursor int `json:"expand_cursor"`
}

// cloneNested deep-copies a map of maps; the result is never nil.
func cloneNested[K, P comparable, V any](m map[K]map[P]V) map[K]map[P]V {
	out := make(map[K]map[P]V, len(m))
	for k, inner := range m {
		out[k] = maps.Clone(inner)
	}
	return out
}

func lessTarget(a, b Target) bool {
	if a.Addr != b.Addr {
		return a.Addr.Less(b.Addr)
	}
	if a.Port != b.Port {
		return a.Port < b.Port
	}
	if a.Transport != b.Transport {
		return a.Transport < b.Transport
	}
	return a.Reason < b.Reason
}

// State deep-copies the model for checkpointing.
func (e *Engine) State() State {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := State{
		Cooc:         cloneNested(e.cooc),
		HostPorts:    cloneNested(e.hostPorts),
		Cursor:       e.cursor,
		ExpandCursor: e.expandCursor,
	}
	if len(e.fullHosts) > 0 {
		st.FullHosts = slices.SortedFunc(maps.Keys(e.fullHosts), netip.Addr.Compare)
		st.FullCooc = cloneNested(e.fullCooc)
		st.FullPortHosts = maps.Clone(e.fullPortHosts)
	}
	for tgt, at := range e.suggested {
		st.Suggested = append(st.Suggested, SuggestedEntry{Target: tgt, At: at})
	}
	sort.Slice(st.Suggested, func(i, j int) bool { return lessTarget(st.Suggested[i].Target, st.Suggested[j].Target) })
	for tgt, entry := range e.evicted {
		st.Evicted = append(st.Evicted, EvictedState{Target: tgt, At: entry.at, LastRetry: entry.lastRetry})
	}
	sort.Slice(st.Evicted, func(i, j int) bool { return lessTarget(st.Evicted[i].Target, st.Evicted[j].Target) })
	return st
}

// Restore replaces the engine's model with a captured state. The sorted
// per-/24 host lists, the stage-1 priors and the per-/24 port counts are
// rebuilt from the host-port map — hosts never leave it, and an eviction
// takes back exactly what Observe counted — so the Recommend order matches
// the engine that produced the state. The exclusion subtrees are left as
// they are.
func (e *Engine) Restore(st State) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cooc = cloneNested(st.Cooc)
	e.fullHosts = make(map[netip.Addr]bool, len(st.FullHosts))
	for _, a := range st.FullHosts {
		e.fullHosts[a] = true
	}
	e.fullCooc = cloneNested(st.FullCooc)
	e.fullPortHosts = make(map[uint16]int, len(st.FullPortHosts))
	maps.Copy(e.fullPortHosts, st.FullPortHosts)
	e.hostPorts = cloneNested(st.HostPorts)
	e.portHosts = make(map[uint16]int)
	e.net24Ports = make(map[netip.Addr]map[uint16]int)
	e.hosts24 = make(map[netip.Addr][]netip.Addr)
	e.ranked = nil
	for k, ports := range e.hostPorts {
		n24 := draw.Net24(k)
		for p := range ports {
			e.portHosts[p]++
			n24Ports := e.net24Ports[n24]
			if n24Ports == nil {
				n24Ports = make(map[uint16]int)
				e.net24Ports[n24] = n24Ports
			}
			n24Ports[p]++
		}
		e.hosts24[n24] = append(e.hosts24[n24], k)
	}
	for _, members := range e.hosts24 {
		sort.Slice(members, func(i, j int) bool { return members[i].Less(members[j]) })
	}
	e.suggested = make(map[Target]time.Time, len(st.Suggested))
	for _, s := range st.Suggested {
		e.suggested[s.Target] = s.At
	}
	e.evicted = make(map[Target]evictedEntry, len(st.Evicted))
	for _, ev := range st.Evicted {
		e.evicted[ev.Target] = evictedEntry{at: ev.At, lastRetry: ev.LastRetry}
	}
	e.cursor = st.Cursor
	e.expandCursor = st.ExpandCursor
	clear(e.top24)
	clear(e.topCooc)
	clear(e.topFull)
}
