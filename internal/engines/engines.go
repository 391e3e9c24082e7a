// Package engines implements the comparator scan engines of the evaluation
// (paper §6): policy-parameterised simulators whose behaviours match what
// the paper measures about Shodan, Fofa, ZoomEye, and Netlas, plus an
// adapter presenting the core pipeline through the same interface.
//
// The baselines differ from the core pipeline in exactly the policies the
// paper identifies as decisive:
//
//   - cadence: a full sweep takes days to a month+ (vs continuous daily
//     refresh), so data ages (Fig 2) and accuracy drops (Table 2);
//   - retention: stale records are never evicted (vs 72-hour pruning);
//   - dedup: some engines append a new record per scan, double-counting
//     (Table 2's Est. % Unique);
//   - port coverage: a fixed popular-port list (vs all 65K), so coverage
//     collapses outside the top ports (Table 1);
//   - labeling: port number + banner keywords (vs completed handshakes), so
//     ICS counts are wildly over-reported (Table 4, §6.3);
//   - vantage: one country, a small source pool (more blocking).
package engines

import (
	"net/netip"
	"sort"
	"strings"
	"time"

	"censysmap/internal/core"
	"censysmap/internal/cyclic"
	"censysmap/internal/entity"
	"censysmap/internal/protocols"
	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
)

// Record is the uniform dataset row evaluation consumes from every engine.
type Record struct {
	Addr      netip.Addr
	Port      uint16
	Transport entity.Transport
	// Protocol is the engine's label for the service (which may be wrong
	// for keyword-labeling engines).
	Protocol string
	// Verified reports the engine completed the protocol handshake.
	Verified bool
	// LastScanned is the record's data timestamp.
	LastScanned time.Time
}

// Engine is the query interface shared by the core pipeline and baselines.
type Engine interface {
	// Name identifies the engine in tables.
	Name() string
	// Records returns the engine's full self-reported dataset, including
	// any stale or duplicate rows its retention policy keeps.
	Records() []Record
	// QueryIP returns the engine's current records for one address.
	QueryIP(addr netip.Addr) []Record
	// QueryProtocol returns every record labeled with the protocol.
	QueryProtocol(proto string) []Record
}

// Policy parameterises a baseline engine.
type Policy struct {
	// Name labels the engine.
	Name string
	// Country is the single vantage point's location.
	Country string
	// SourceIPs sizes the source pool (blocking exposure).
	SourceIPs int
	// Ports is the fixed port list the engine sweeps.
	Ports []uint16
	// SweepDuration is how long one full pass over (universe x ports)
	// takes — the paper's "a single scan takes about a month" for Netlas.
	SweepDuration time.Duration
	// KeepDuplicates appends a new record per observation instead of
	// keying by (ip, port).
	KeepDuplicates bool
	// RetainFor drops records older than this; zero retains forever.
	RetainFor time.Duration
	// BlockedFrac is the fraction of networks that blocklist this engine
	// (operator reputation).
	BlockedFrac float64
}

// Baseline is a policy-driven comparator engine.
type Baseline struct {
	policy  Policy
	net     *simnet.Internet
	clock   simclock.Clock
	scanner simnet.Scanner
	space   *cyclic.Space
	iter    *cyclic.Iterator
	gen     uint64
	// keyed records (when deduping).
	byKey map[recordKey]*Record
	// appended records (when keeping duplicates).
	log      []Record
	perTick  int
	stopTick func()
}

type recordKey struct {
	addr      netip.Addr
	port      uint16
	transport entity.Transport
}

// NewBaseline builds a baseline engine over the shared universe and
// schedules its scanning on the simulated clock at the given tick.
func NewBaseline(policy Policy, net *simnet.Internet, tick time.Duration) (*Baseline, error) {
	space, err := cyclic.NewPrefixSpace(net.Config().Prefix, policy.Ports)
	if err != nil {
		return nil, err
	}
	iter, err := cyclic.NewIterator(space, cyclic.NameSeed(policy.Name))
	if err != nil {
		return nil, err
	}
	ticksPerSweep := int(policy.SweepDuration / tick)
	if ticksPerSweep < 1 {
		ticksPerSweep = 1
	}
	perTick := int(space.Size())/ticksPerSweep + 1
	b := &Baseline{
		policy: policy,
		net:    net,
		clock:  net.Clock(),
		scanner: simnet.Scanner{ID: policy.Name, SourceIPs: policy.SourceIPs,
			Country: policy.Country, BlockedFrac: policy.BlockedFrac},
		space:   space,
		iter:    iter,
		byKey:   make(map[recordKey]*Record),
		perTick: perTick,
	}
	if sim, ok := net.Clock().(*simclock.Sim); ok {
		b.stopTick = sim.Every(tick, b.Tick)
	}
	return b, nil
}

// Stop cancels scheduled scanning.
func (b *Baseline) Stop() {
	if b.stopTick != nil {
		b.stopTick()
		b.stopTick = nil
	}
}

// Name implements Engine.
func (b *Baseline) Name() string { return b.policy.Name }

// Tick advances the engine's sweep by one quantum.
func (b *Baseline) Tick(now time.Time) {
	for i := 0; i < b.perTick; i++ {
		addr, port, ok := b.iter.Next()
		if !ok {
			b.gen++
			iter, err := cyclic.NewShardedIterator(b.space, cyclic.NameSeed(b.policy.Name)^b.gen, 0, 1)
			if err != nil {
				return
			}
			b.iter = iter
			addr, port, ok = b.iter.Next()
			if !ok {
				return
			}
		}
		b.probe(addr, port, now)
	}
	b.expire(now)
}

// probe scans one target and records per policy.
func (b *Baseline) probe(addr netip.Addr, port uint16, now time.Time) {
	if b.net.ProbeTCP(b.scanner, addr, port) == simnet.Open {
		b.store(Record{Addr: addr, Port: port, Transport: entity.TCP,
			Protocol: b.labelByPortAndKeyword(addr, port), LastScanned: now})
	}
	// UDP protocols on their conventional ports.
	for _, p := range protocols.ForPort(port, entity.UDP) {
		payload := protocols.FirstProbe(p.Name)
		if payload == nil {
			continue
		}
		if _, out := b.net.ProbeUDP(b.scanner, addr, port, payload); out != simnet.Open {
			continue
		}
		b.store(Record{Addr: addr, Port: port, Transport: entity.UDP,
			Protocol: p.Name, LastScanned: now})
	}
}

func (b *Baseline) store(rec Record) {
	if b.policy.KeepDuplicates {
		b.log = append(b.log, rec)
		return
	}
	key := recordKey{rec.Addr, rec.Port, rec.Transport}
	b.byKey[key] = &rec
}

// icsPortLabels is the port->protocol table keyword-labeling engines use.
var icsPortLabels = map[uint16]string{
	502: "MODBUS", 102: "S7", 20000: "DNP3", 47808: "BACNET", 9600: "FINS",
	1911: "FOX", 4911: "FOX", 44818: "EIP", 10001: "ATG", 2455: "CODESYS",
	2404: "IEC104", 18245: "GE_SRTP", 789: "REDLION", 1962: "PCWORX",
	20547: "PROCONOS", 5094: "HART", 17185: "WDBRPC",
}

// genericPortLabels covers common non-ICS ports.
var genericPortLabels = map[uint16]string{
	80: "HTTP", 443: "HTTP", 8080: "HTTP", 8443: "HTTP", 8000: "HTTP",
	7547: "HTTP", 2082: "HTTP", 8888: "HTTP",
	22: "SSH", 2222: "SSH", 21: "FTP", 25: "SMTP", 587: "SMTP",
	23: "TELNET", 3389: "RDP", 3306: "MYSQL", 6379: "REDIS",
	5900: "VNC", 5901: "VNC", 1883: "MQTT", 5060: "SIP",
	53: "DNS", 123: "NTP", 161: "SNMP",
}

// labelByPortAndKeyword reproduces the mislabeling the paper documents
// (§6.3): the service gets the port's conventional protocol name — "criteria
// met by hundreds of thousands of HTTP services rather than services running
// CODESYS" — with at most a shallow banner grab for flavor.
func (b *Baseline) labelByPortAndKeyword(addr netip.Addr, port uint16) string {
	if label, ok := icsPortLabels[port]; ok {
		// A keyword check against whatever banner comes back; any
		// response at all "confirms" the label.
		if conn, ok := b.net.Connect(b.scanner, addr, port, entity.TCP); ok {
			res, err := protocols.ScanHTTP(conn)
			if err == nil || res != nil {
				return label
			}
		}
		return label
	}
	if label, ok := genericPortLabels[port]; ok {
		return label
	}
	// Unknown port: shallow banner fingerprint, defaulting to HTTP.
	if conn, ok := b.net.Connect(b.scanner, addr, port, entity.TCP); ok {
		buf := make([]byte, 512)
		if n, err := conn.Read(buf); err == nil && n > 0 {
			if name := protocols.Identify(buf[:n]); name != "" {
				return name
			}
		}
	}
	return "HTTP"
}

// expire applies the retention policy.
func (b *Baseline) expire(now time.Time) {
	if b.policy.RetainFor == 0 {
		return
	}
	for k, r := range b.byKey {
		if now.Sub(r.LastScanned) > b.policy.RetainFor {
			delete(b.byKey, k)
		}
	}
	keep := b.log[:0]
	for _, r := range b.log {
		if now.Sub(r.LastScanned) <= b.policy.RetainFor {
			keep = append(keep, r)
		}
	}
	b.log = keep
}

// Records implements Engine.
func (b *Baseline) Records() []Record {
	out := make([]Record, 0, len(b.byKey)+len(b.log))
	for _, r := range b.byKey {
		out = append(out, *r)
	}
	out = append(out, b.log...)
	sortRecords(out)
	return out
}

// QueryIP implements Engine.
func (b *Baseline) QueryIP(addr netip.Addr) []Record {
	var out []Record
	for k, r := range b.byKey {
		if k.addr == addr {
			out = append(out, *r)
		}
	}
	for _, r := range b.log {
		if r.Addr == addr {
			out = append(out, r)
		}
	}
	sortRecords(out)
	return out
}

// QueryProtocol implements Engine.
func (b *Baseline) QueryProtocol(proto string) []Record {
	var out []Record
	for _, r := range b.Records() {
		if strings.EqualFold(r.Protocol, proto) {
			out = append(out, r)
		}
	}
	return out
}

func sortRecords(rs []Record) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Addr != rs[j].Addr {
			return rs[i].Addr.Less(rs[j].Addr)
		}
		if rs[i].Port != rs[j].Port {
			return rs[i].Port < rs[j].Port
		}
		return rs[i].LastScanned.Before(rs[j].LastScanned)
	})
}

// CoreAdapter presents a core.Map through the Engine interface.
type CoreAdapter struct {
	name string
	m    *core.Map
}

// NewCoreAdapter wraps the pipeline.
func NewCoreAdapter(name string, m *core.Map) *CoreAdapter {
	return &CoreAdapter{name: name, m: m}
}

// Name implements Engine.
func (c *CoreAdapter) Name() string { return c.name }

// Records implements Engine: the current dataset, excluding pending-removal
// services (the paper's own export filter).
func (c *CoreAdapter) Records() []Record {
	var out []Record
	for _, r := range c.m.CurrentServices(false) {
		out = append(out, Record{
			Addr: r.Addr, Port: r.Port, Transport: r.Transport,
			Protocol: r.Protocol, Verified: r.Verified, LastScanned: r.LastSeen,
		})
	}
	return out
}

// QueryIP implements Engine.
func (c *CoreAdapter) QueryIP(addr netip.Addr) []Record {
	h, ok := c.m.HostCurrent(addr)
	if !ok {
		return nil
	}
	var out []Record
	for _, svc := range h.ActiveServices() {
		out = append(out, Record{
			Addr: addr, Port: svc.Port, Transport: svc.Transport,
			Protocol: svc.Protocol, Verified: svc.Verified, LastScanned: svc.LastSeen,
		})
	}
	return out
}

// QueryProtocol implements Engine.
func (c *CoreAdapter) QueryProtocol(proto string) []Record {
	var out []Record
	for _, r := range c.Records() {
		if strings.EqualFold(r.Protocol, proto) && r.Verified {
			out = append(out, r)
		}
	}
	return out
}
