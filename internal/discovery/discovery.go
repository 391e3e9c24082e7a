// Package discovery implements Phase 1 of two-phase scanning (paper §4.1):
// continuous, stateless L4 discovery of potential service locations. It runs
// the paper's three scan classes —
//
//   - Common Ports and Protocols: the most responsive ports plus
//     IANA-assigned ports of interest, covered daily;
//   - Dense, High-Churn Networks: known cloud prefixes on a wide port set,
//     at least daily;
//   - Background 65K: every port on every address, slowly and continuously,
//     feeding the predictive engine and surfacing long-lived services on
//     unusual ports —
//
// from multiple points of presence, with traffic spread evenly across time
// (continuous operation rather than timed runs) and across a pool of source
// addresses. L4-responsive targets are never published: they are candidates
// queued for Phase 2 interrogation.
package discovery

import (
	"fmt"
	"math/bits"
	"net/netip"
	"time"

	"censysmap/internal/cyclic"
	"censysmap/internal/draw"
	"censysmap/internal/entity"
	"censysmap/internal/protocols"
	"censysmap/internal/simnet"
)

// PoP is a scanning point of presence (paper §4.5).
type PoP struct {
	// Name identifies the PoP, e.g. "chi", "fra", "hkg".
	Name string
	// Country is the vantage point's location (geoblocking input).
	Country string
}

// DefaultPoPs mirrors the paper's deployment: Chicago, Frankfurt, Hong Kong.
func DefaultPoPs() []PoP {
	return []PoP{
		{Name: "chi", Country: "US"},
		{Name: "fra", Country: "DE"},
		{Name: "hkg", Country: "HK"},
	}
}

// Candidate is a potential service location discovered in Phase 1.
type Candidate struct {
	Addr      netip.Addr
	Port      uint16
	Transport entity.Transport
	// Method records which scan class (or engine) produced the candidate.
	Method entity.DetectionMethod
	// PoP is the vantage point that saw the response.
	PoP string
	// Time is when the response was observed.
	Time time.Time
	// UDPProtocol names the protocol whose probe elicited a UDP reply.
	UDPProtocol string
}

// ClassConfig sizes one scan class.
type ClassConfig struct {
	// Name labels the class in stats.
	Name string
	// Method tags candidates found by this class.
	Method entity.DetectionMethod
	// Space is the (address × port) target space the class covers.
	Space *cyclic.Space
	// ProbesPerTick is the class's per-tick probe budget (bandwidth
	// allocation).
	ProbesPerTick int
	// Restart restarts coverage from a fresh pseudorandom order when the
	// space is exhausted (continuous scanning).
	Restart bool
}

// Config assembles a discovery engine.
type Config struct {
	// Scanner identifies this engine to networks (blocking model).
	Scanner simnet.Scanner
	// PoPs are the vantage points; probes rotate across them.
	PoPs []PoP
	// Classes are the scan classes to run.
	Classes []ClassConfig
	// Excluded prefixes are never probed (opt-out list, paper §8/App. D).
	Excluded []netip.Prefix
	// Seed drives iteration order.
	Seed uint64
	// Ledger accounts every probe target spent and every L4-responsive
	// answer per scan class, and caps each class's per-tick spend at its
	// registered grant. It is required. Register the classes before New: it
	// resolves each class's ledger handle once, and a class the ledger does
	// not know is granted nothing.
	Ledger *Ledger
	// Backoff configures adaptive backoff and scanner rotation against
	// networks that block scanners (see adaptive.go). Zero value disables.
	Backoff BackoffPolicy
}

// Stats counts engine activity.
type Stats struct {
	ProbesSent     uint64
	OpenResponses  uint64
	ClosedResponse uint64
	Dropped        uint64
	Excluded       uint64
	CyclesComplete uint64
	// Adaptive-backoff accounting (zero unless Config.Backoff is enabled).
	Deferred  uint64 // probes skipped because their /24 was backed off
	Backoffs  uint64 // backoff events triggered
	Rotations uint64 // scanner identity rotations
}

// Engine drives discovery scanning over the synthetic Internet.
type Engine struct {
	cfg     Config
	net     *simnet.Internet
	classes []*classState
	// popIdx is the PoP the next probe leaves from; scanners[i] is the
	// identity PoP i probes as, rebuilt when the identity rotates.
	popIdx   int
	scanners []simnet.Scanner
	stats    Stats
	// udpProbes holds the protocol-specific UDP payloads in port order;
	// udpPorts is their ports as a bitmap, and udpRank[w] counts the ports
	// in the bitmap's words before w. A port that carries no UDP protocol
	// (almost every probed one) stops at its bit; one that does finds its
	// probe at its rank among the set bits, without hashing.
	udpProbes []udpProbe
	udpPorts  [1024]uint64
	udpRank   [1024]uint16

	// Adaptive-backoff state (see adaptive.go); empty unless cfg.Backoff
	// is enabled.
	tickNo        uint64
	backoff       map[netip.Addr]*netBackoff
	answered      map[netip.Addr]bool // addresses that have ever answered
	offensesTotal uint64
	rotations     int
}

type udpProbe struct {
	protocol string
	payload  []byte
}

type classState struct {
	cfg    ClassConfig
	iter   *cyclic.Iterator
	gen    uint64 // reseed counter across restarts
	ledger Class  // the class's handle in cfg.Ledger
}

// New creates a discovery engine.
func New(cfg Config, net *simnet.Internet) (*Engine, error) {
	if len(cfg.PoPs) == 0 {
		return nil, fmt.Errorf("discovery: at least one PoP required")
	}
	if cfg.Ledger == nil {
		return nil, fmt.Errorf("discovery: a probe ledger is required")
	}
	e := &Engine{cfg: cfg, net: net}
	e.buildScanners()
	for _, cc := range cfg.Classes {
		if cc.Space == nil || cc.ProbesPerTick <= 0 {
			return nil, fmt.Errorf("discovery: class %q misconfigured", cc.Name)
		}
		it, err := cyclic.NewIterator(cc.Space, cfg.Seed^cyclic.NameSeed(cc.Name))
		if err != nil {
			return nil, fmt.Errorf("discovery: class %q: %w", cc.Name, err)
		}
		cs := &classState{cfg: cc, iter: it, ledger: cfg.Ledger.Class(cc.Name)}
		e.classes = append(e.classes, cs)
	}
	// Precompute UDP probes for ports whose conventional protocol is
	// UDP-based; a later protocol claiming a port replaces an earlier one.
	byPort := make(map[uint16]udpProbe)
	for _, p := range protocols.All() {
		if p.Transport != entity.UDP {
			continue
		}
		payload := protocols.FirstProbe(p.Name)
		if payload == nil {
			continue
		}
		for _, port := range p.DefaultPorts {
			byPort[port] = udpProbe{protocol: p.Name, payload: payload}
			e.udpPorts[port>>6] |= 1 << (port & 63)
		}
	}
	for w := range e.udpPorts {
		e.udpRank[w] = uint16(len(e.udpProbes))
		for set := e.udpPorts[w]; set != 0; set &= set - 1 {
			e.udpProbes = append(e.udpProbes, byPort[uint16(w<<6+bits.TrailingZeros64(set))])
		}
	}
	return e, nil
}

// udpProbe returns the UDP probe for port, nil when none is defined.
func (e *Engine) udpProbe(port uint16) *udpProbe {
	w, bit := port>>6, uint64(1)<<(port&63)
	if e.udpPorts[w]&bit == 0 {
		return nil
	}
	return &e.udpProbes[int(e.udpRank[w])+bits.OnesCount64(e.udpPorts[w]&(bit-1))]
}

// SetExcluded replaces the engine's opt-out list (dynamic exclusions).
func (e *Engine) SetExcluded(prefixes []netip.Prefix) {
	e.cfg.Excluded = append([]netip.Prefix(nil), prefixes...)
}

// excluded reports whether addr is in the opt-out list.
func (e *Engine) excluded(addr netip.Addr) bool {
	for _, p := range e.cfg.Excluded {
		if p.Contains(addr) {
			return true
		}
	}
	return false
}

// Tick runs one scheduling quantum: each class spends its probe budget, and
// responsive targets are passed to emit. Probes rotate over PoPs so traffic
// is spread across vantage points. Every probe of the tick is sent at now,
// through one simnet.Batch that is flushed before Tick returns.
func (e *Engine) Tick(now time.Time, emit func(Candidate)) {
	backoff := e.cfg.Backoff.Enabled()
	if backoff {
		e.tickNo++
	}
	e.cfg.Ledger.BeginTick()
	b := e.net.Batch(now)
	defer b.Flush()
	for _, cs := range e.classes {
		budget := min(cs.cfg.ProbesPerTick, e.cfg.Ledger.Grant(cs.ledger))
		// Deferred draws (backed-off /24s) do not consume the budget: the
		// slot is re-spent on the next target in the cycle, so backing off
		// from hostile networks degrades coverage only there instead of
		// starving the whole class. Draws are capped at 4x the budget so a
		// tick stays bounded even when most of the space is backed off.
		// With backoff disabled nothing is ever deferred and the loop is
		// byte-identical to the legacy schedule.
		maxDraws := budget * 4
		probed, confirmed := 0, 0 // the ledger's batch for this class
		for spent, draws := 0, 0; spent < budget && draws < maxDraws; draws++ {
			a, port, ok := cs.iter.NextU32()
			if !ok {
				e.stats.CyclesComplete++
				if !cs.cfg.Restart {
					break
				}
				cs.gen++
				it, err := cyclic.NewIterator(cs.cfg.Space, e.cfg.Seed^cyclic.NameSeed(cs.cfg.Name)^cs.gen)
				if err != nil {
					break
				}
				cs.iter = it
				a, port, ok = cs.iter.NextU32()
				if !ok {
					break
				}
			}
			if len(e.cfg.Excluded) > 0 && e.excluded(draw.U32Addr(a)) {
				e.stats.Excluded++
				spent++
				continue
			}
			if backoff && e.deferred(draw.U32Addr(a)) {
				e.stats.Deferred++
				continue
			}
			probed++
			if e.probe(&b, now, cs.cfg.Method, a, port, backoff, emit) {
				confirmed++
			}
			spent++
		}
		// One flush per class, before the next class takes its Grant.
		e.cfg.Ledger.Account(cs.ledger, probed, confirmed)
	}
}

// probe sends one TCP SYN (plus a protocol-specific UDP probe when the port
// conventionally carries a UDP protocol) to address a from the next PoP in
// rotation, and reports whether either drew an L4-responsive answer: the
// ledger accounts the target once regardless of how many probes it takes,
// and confirms it at most once. With backoff on, the TCP outcome feeds the
// per-/24 streak tracker.
func (e *Engine) probe(b *simnet.Batch, now time.Time, method entity.DetectionMethod, a uint32, port uint16, backoff bool, emit func(Candidate)) (confirmed bool) {
	pi := e.popIdx
	if e.popIdx++; e.popIdx == len(e.scanners) {
		e.popIdx = 0
	}
	sc := &e.scanners[pi]

	e.stats.ProbesSent++
	outcome := b.TCP(sc, a, port)
	switch outcome {
	case simnet.Open:
		e.stats.OpenResponses++
		confirmed = true
		emit(Candidate{Addr: draw.U32Addr(a), Port: port, Transport: entity.TCP,
			Method: method, PoP: e.cfg.PoPs[pi].Name, Time: now})
	case simnet.Closed:
		e.stats.ClosedResponse++
	default:
		e.stats.Dropped++
	}
	if backoff {
		e.noteOutcome(draw.U32Addr(a), outcome == simnet.Dropped)
	}

	up := e.udpProbe(port)
	if up == nil {
		return confirmed
	}
	e.stats.ProbesSent++
	if resp, uout := b.UDP(sc, a, port, up.payload); uout == simnet.Open && len(resp) > 0 {
		e.stats.OpenResponses++
		confirmed = true
		emit(Candidate{Addr: draw.U32Addr(a), Port: port, Transport: entity.UDP,
			Method: method, PoP: e.cfg.PoPs[pi].Name, Time: now, UDPProtocol: up.protocol})
	} else {
		e.stats.Dropped++
	}
	return confirmed
}

// Stats returns cumulative counters.
func (e *Engine) Stats() Stats { return e.stats }

// ClassPosition is one scan class's serializable coverage position.
type ClassPosition struct {
	Name  string            `json:"name"`
	Gen   uint64            `json:"gen"`
	Cycle cyclic.CycleState `json:"cycle"`
}

// State is the engine's serializable position: PoP rotation, counters, and
// each class's place in its coverage cycle. The cycles themselves re-derive
// from the engine seed, so a restored engine probes the exact targets the
// original would have probed next.
type State struct {
	PopIdx  int             `json:"pop_idx"`
	Stats   Stats           `json:"stats"`
	Classes []ClassPosition `json:"classes"`
	Ledger  LedgerState     `json:"ledger,omitzero"`
	// Adaptive-backoff position (empty unless Config.Backoff is enabled).
	TickNo    uint64            `json:"tick_no,omitempty"`
	Offenses  uint64            `json:"offenses,omitempty"`
	Rotations int               `json:"rotations,omitempty"`
	Backoff   []NetBackoffState `json:"backoff,omitempty"`
	Answered  []netip.Addr      `json:"answered,omitempty"`
}

// State captures the engine's position for checkpointing.
func (e *Engine) State() State {
	st := State{PopIdx: e.popIdx, Stats: e.stats, Ledger: e.cfg.Ledger.State(),
		TickNo: e.tickNo, Offenses: e.offensesTotal, Rotations: e.rotations,
		Backoff: e.backoffState(), Answered: e.answeredState()}
	for _, cs := range e.classes {
		st.Classes = append(st.Classes, ClassPosition{
			Name: cs.cfg.Name, Gen: cs.gen, Cycle: cs.iter.State()})
	}
	return st
}

// Restore repositions an engine built with the same Config to a captured
// state. Classes are matched by name; unknown names are ignored.
func (e *Engine) Restore(st State) error {
	e.popIdx = st.PopIdx % len(e.scanners)
	e.stats = st.Stats
	e.tickNo = st.TickNo
	e.offensesTotal = st.Offenses
	e.rotations = st.Rotations
	e.buildScanners()
	e.restoreBackoff(st.Backoff)
	e.restoreAnswered(st.Answered)
	for _, cp := range st.Classes {
		for _, cs := range e.classes {
			if cs.cfg.Name != cp.Name {
				continue
			}
			if cp.Gen != cs.gen {
				// The class restarted its coverage cycle with a reseeded
				// order; rebuild the same generation's iterator.
				it, err := cyclic.NewIterator(cs.cfg.Space, e.cfg.Seed^cyclic.NameSeed(cs.cfg.Name)^cp.Gen)
				if err != nil {
					return fmt.Errorf("discovery: restore class %q: %w", cp.Name, err)
				}
				cs.iter = it
				cs.gen = cp.Gen
			}
			cs.iter.Restore(cp.Cycle)
		}
	}
	e.cfg.Ledger.Restore(st.Ledger)
	return nil
}

// PriorityPorts returns the ~top responsive ports plus IANA-assigned ports
// of interest that the Common Ports class covers daily (a scaled-down
// version of the paper's ~200).
func PriorityPorts() []uint16 {
	return []uint16{
		80, 443, 22, 7547, 21, 25, 8080, 3389, 53, 23,
		5060, 587, 3306, 8443, 123, 161, 8000, 5900, 2222, 6379,
		445, 1883, 8888, 2082, 110, 143, 465, 993, 995, 5901,
		// IANA-assigned protocols of interest (incl. ICS):
		502, 102, 20000, 47808, 9600, 1911, 4911, 44818, 10001, 2455,
		2404, 18245, 789, 1962, 20547, 5094, 17185,
		81, 8081, 9000, 10000,
	}
}

// CloudPorts returns the wider port set used on dense cloud networks
// (scaled-down version of the paper's 300).
func CloudPorts() []uint16 {
	ports := append([]uint16(nil), PriorityPorts()...)
	extra := []uint16{82, 8089, 9090, 49152, 60000, 500, 3000, 5000, 5432,
		27017, 9200, 11211, 4443, 8834, 9443, 8500, 2379, 6443, 10250, 30000}
	return append(ports, extra...)
}
