package simnet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"time"

	"censysmap/internal/draw"
	"censysmap/internal/entity"
	"censysmap/internal/protocols"
	"censysmap/internal/simclock"
)

// mapModel is the network as it stood before the dense tables, kept as their
// oracle: hosts in a map keyed by address, and one path record per (scanner,
// /24) in a map keyed by the ID string and the /24's base, with blocking and
// ambient as they were. It shares the universe's generation (config, epoch,
// clock, host objects) with the Internet it shadows and keeps its own host
// set, path state and counters.
type mapModel struct {
	n      *Internet
	hosts  map[netip.Addr]*Host
	paths  map[scanNetKey]*mapPath
	drops  pathStats
	probes uint64
}

type scanNetKey struct {
	scanner string
	net     uint32
}

type mapPath struct {
	day               int64
	probes, detProbes int
	offenses          int
	blockedTill       time.Time
	blockedBy         Cause
	seq               [256]uint32
}

func newMapModel(n *Internet) *mapModel {
	m := &mapModel{n: n, hosts: map[netip.Addr]*Host{}, paths: map[scanNetKey]*mapPath{}}
	for _, a := range n.Addrs() {
		m.hosts[a] = n.HostAt(a)
	}
	return m
}

func (m *mapModel) probeTCP(sc Scanner, addr netip.Addr, port uint16) Outcome {
	h := m.hosts[addr]
	if h == nil {
		m.probes++
		return Dropped
	}
	if !m.pathOK(sc, addr, OpProbe) {
		return Dropped
	}
	if h.Pseudo || h.Tarpit {
		return Open
	}
	now := m.n.clock.Now()
	for _, s := range h.Slots {
		if s.Port == port && s.Transport == entity.TCP && s.AliveAt(m.n.epoch, now) {
			return Open
		}
	}
	return Closed
}

func (m *mapModel) probeUDP(sc Scanner, addr netip.Addr, port uint16, payload []byte) ([]byte, Outcome) {
	h := m.hosts[addr]
	if h == nil || h.Pseudo || h.Tarpit {
		m.probes++
		return nil, Dropped
	}
	if !m.pathOK(sc, addr, OpProbe) {
		return nil, Dropped
	}
	now := m.n.clock.Now()
	for _, s := range h.Slots {
		if s.Port == port && s.Transport == entity.UDP && s.AliveAt(m.n.epoch, now) {
			sess := protocols.NewSession(s.Spec)
			if sess == nil {
				return nil, Dropped
			}
			resp, _ := sess.Respond(payload)
			if len(resp) == 0 {
				return nil, Dropped
			}
			return resp, Open
		}
	}
	return nil, Dropped
}

func (m *mapModel) connect(sc Scanner, addr netip.Addr, port uint16, transport entity.Transport) bool {
	h := m.hosts[addr]
	if h == nil {
		m.probes++
		return false
	}
	if !m.pathOK(sc, addr, OpConnect) {
		return false
	}
	if h.Pseudo || h.Tarpit {
		return transport == entity.TCP
	}
	now := m.n.clock.Now()
	for _, s := range h.Slots {
		if s.Port == port && s.Transport == transport && s.AliveAt(m.n.epoch, now) {
			return protocols.NewSession(s.Spec) != nil
		}
	}
	return false
}

func (m *mapModel) pathOK(sc Scanner, addr netip.Addr, op Op) bool {
	m.probes++
	now := m.n.clock.Now()
	a := draw.AddrU32(addr)
	c, seq := m.blocking(sc, a, op, now)
	if c == Delivered {
		c = m.n.cfg.Adversary.injected(draw.StrHash(sc.ID), a, op, seq, now)
	}
	if c == Delivered {
		c = m.ambient(sc, a, seq, now)
	}
	if c == Delivered {
		return true
	}
	m.drops[c]++
	return false
}

func (m *mapModel) blocking(sc Scanner, a uint32, op Op, now time.Time) (Cause, uint64) {
	n := m.n
	key := scanNetKey{sc.ID, a &^ 0xFF}
	p := m.paths[key]
	if p == nil {
		p = &mapPath{}
		m.paths[key] = p
	}
	if now.Before(p.blockedTill) {
		return p.blockedBy, 0
	}
	if op == OpProbe {
		if day := int64(now.Sub(n.epoch) / (24 * time.Hour)); day != p.day {
			p.day, p.probes, p.detProbes = day, 0, 0
		}
		p.probes++
		if n.cfg.BlockThreshold > 0 && p.probes > n.cfg.BlockThreshold*max(sc.SourceIPs, 1) {
			p.blockedTill, p.blockedBy = now.Add(n.cfg.BlockDuration), CauseRateBlock
			return CauseRateBlock, 0
		}
		if adv := n.cfg.Adversary; adv.DetectorThreshold > 0 && n.detectorAt(uint64(key.net)) {
			p.detProbes++
			if p.detProbes > adv.DetectorThreshold {
				p.offenses++
				p.detProbes = 0
				dur := adv.baseBlock()
				for i := 1; i < p.offenses; i++ {
					dur *= 2
					if dur >= adv.maxBlock() {
						dur = adv.maxBlock()
						break
					}
				}
				p.blockedTill, p.blockedBy = now.Add(dur), CauseDetector
				return CauseDetector, 0
			}
		}
	}
	seq := p.seq[uint8(a)]
	p.seq[uint8(a)] = seq + 1
	return Delivered, uint64(seq)
}

func (m *mapModel) ambient(sc Scanner, a uint32, seq uint64, now time.Time) Cause {
	n := m.n
	seed := n.cfg.Seed
	net := a &^ 0xFF
	netID := uint64(net)
	if sc.BlockedFrac > 0 && draw.Frac(draw.Mix(seed, 0xB10C, netID, draw.StrHash(sc.ID))) < sc.BlockedFrac {
		return CauseReputation
	}
	if draw.Frac(draw.Mix(seed, 0x6E0, netID)) < n.cfg.GeoblockRate {
		block24 := uint64(net-draw.AddrU32(n.cfg.Prefix.Masked().Addr())) >> 8
		if sc.Country != pickCountry(draw.Mix(seed, 0xC0, block24)) {
			return CauseGeoblock
		}
	}
	hour := int64(now.Sub(n.epoch) / time.Hour)
	if draw.Frac(draw.Mix(seed, 0x007, netID, uint64(hour))) < n.cfg.OutageRate {
		return CauseOutage
	}
	net16 := uint64(a &^ 0xFFFF)
	loss := n.cfg.BaseLoss * (1 + 2*draw.Frac(draw.Mix(seed, 0x105, net16, draw.StrHash(sc.Country))))
	if draw.Frac(draw.Mix(seed, 0x10D, uint64(a), draw.StrHash(sc.ID), seq)) < loss {
		return CauseLoss
	}
	return Delivered
}

func (m *mapModel) blockedNetworks(idPrefix string) int {
	now := m.n.clock.Now()
	count := 0
	for k, p := range m.paths {
		if strings.HasPrefix(k.scanner, idPrefix) && now.Before(p.blockedTill) {
			count++
		}
	}
	return count
}

func (m *mapModel) detectorBlockEvents(idPrefix string) int {
	total := 0
	for k, p := range m.paths {
		if strings.HasPrefix(k.scanner, idPrefix) {
			total += p.offenses
		}
	}
	return total
}

// diffConfig is a universe where every path layer fires: a low rate
// threshold with short blocks, scan detectors, every injected fault,
// geoblocking, outages, loss.
func diffConfig(prefix string) Config {
	cfg := DefaultConfig()
	cfg.Prefix = netip.MustParsePrefix(prefix)
	cfg.HostDensity = 0.3
	cfg.CloudBlocks = 1
	cfg.WebProperties = 0
	cfg.BaseLoss = 0.05
	cfg.OutageRate = 0.05
	cfg.GeoblockRate = 0.3
	cfg.BlockThreshold = 40
	cfg.BlockDuration = 3 * time.Hour
	cfg.Adversary = AdversaryConfig{Seed: 3, DetectorRate: 0.5, DetectorThreshold: 15,
		DetectorBaseBlock: 30 * time.Minute, DetectorMaxBlock: 4 * time.Hour,
		FaultLoss: 0.01, FaultBurstRate: 0.05, FaultBurstLoss: 0.3, FaultStormRate: 0.02,
		FaultBlockRate: 0.05, FaultTimeoutRate: 0.02}
	return cfg
}

// pathDiff drives one Internet and its map model through the same calls.
type pathDiff struct {
	n   *Internet
	clk *simclock.Sim
	m   *mapModel
	ops int
}

func newPathDiff(prefix string) *pathDiff {
	clk := simclock.New()
	n := New(diffConfig(prefix), clk)
	return &pathDiff{n: n, clk: clk, m: newMapModel(n)}
}

// diffIDs are one identity and two rotations of it; each call also draws
// one of two vantage countries.
var diffIDs = []string{"x", "x+r1", "x+r2"}

// step decodes one call from 8 bytes and makes it on both sides:
//
//	b[0] the call: ProbeTCP, ProbeUDP, Connect, or (1 in 64) AddHost or
//	     RemoveHost
//	b[1] scanner ID, country, reputation, and the added host's kind
//	b[2] the address class: a host, any in-prefix address, below or above
//	     the prefix, or a host's IPv4-mapped IPv6 form; which mutation
//	b[3:5] which host or offset; b[5:7] the port (or one of the host's
//	     slots); b[7] the clock: +1 minute (30 %), +1 hour (rarely)
func (d *pathDiff) step(t testing.TB, b []byte) {
	t.Helper()
	d.ops++
	n, m := d.n, d.m
	idx := int(binary.LittleEndian.Uint16(b[3:5]))
	size := len(n.hosts)
	var addr netip.Addr
	switch addrs := n.Addrs(); {
	case b[2] >= 250 && len(addrs) > 0:
		a4 := addrs[idx%len(addrs)].As4()
		addr = netip.AddrFrom16([16]byte{10: 0xFF, 11: 0xFF, 12: a4[0], 13: a4[1], 14: a4[2], 15: a4[3]})
	case b[2]%10 < 6 && len(addrs) > 0:
		addr = addrs[idx%len(addrs)]
	case b[2]%10 < 8:
		addr = draw.U32Addr(n.base + uint32(idx%size))
	case b[2]%10 == 8:
		addr = draw.U32Addr(n.base - 1 - uint32(idx%512))
	default:
		addr = draw.U32Addr(n.base + uint32(size) + uint32(idx%512))
	}
	sc := Scanner{ID: diffIDs[b[1]%3], SourceIPs: 1, Country: []string{"US", "DE"}[b[1]>>2&1]}
	if b[1]&0x80 != 0 {
		sc.BlockedFrac = 0.6
	}
	pv := binary.LittleEndian.Uint16(b[5:7])
	port, transport := pv>>1, entity.TCP
	payload := protocols.FirstProbe("DNS")
	if h := n.HostAt(addr); h != nil && pv&1 == 0 && len(h.Slots) > 0 {
		s := h.Slots[int(pv>>1)%len(h.Slots)]
		port, transport = s.Port, s.Transport
		if p := protocols.FirstProbe(s.Spec.Protocol); p != nil {
			payload = p
		}
	}

	switch k := b[0] % 64; {
	case k < 36:
		if got, want := n.ProbeTCP(sc, addr, port), m.probeTCP(sc, addr, port); got != want {
			t.Fatalf("op %d: ProbeTCP(%s/%s, %v, %d) = %v, map model %v", d.ops, sc.ID, sc.Country, addr, port, got, want)
		}
	case k < 48:
		got, gotOut := n.ProbeUDP(sc, addr, port, payload)
		want, wantOut := m.probeUDP(sc, addr, port, payload)
		if gotOut != wantOut || !bytes.Equal(got, want) {
			t.Fatalf("op %d: ProbeUDP(%s/%s, %v, %d) = %v, map model %v", d.ops, sc.ID, sc.Country, addr, port, gotOut, wantOut)
		}
	case k < 63:
		_, got := n.Connect(sc, addr, port, transport)
		if want := m.connect(sc, addr, port, transport); got != want {
			t.Fatalf("op %d: Connect(%s/%s, %v, %d/%s) = %v, map model %v", d.ops, sc.ID, sc.Country, addr, port, transport, got, want)
		}
	case b[2]&3 != 0:
		a := draw.U32Addr(n.base + uint32(idx%size))
		h := &Host{Addr: a, Country: "US", Pseudo: b[1]&2 != 0, Slots: []*Slot{
			{Port: 8080, Transport: entity.TCP, Spec: protocols.Spec{Protocol: "HTTP"}, Birth: d.clk.Now()},
			{Port: 53, Transport: entity.UDP, Spec: protocols.Spec{Protocol: "DNS"}, Birth: d.clk.Now()},
		}}
		n.AddHost(h)
		m.hosts[a] = h
	default:
		if addrs := n.Addrs(); len(addrs) > 0 {
			a := addrs[idx%len(addrs)]
			n.RemoveHost(a)
			delete(m.hosts, a)
		}
	}

	switch {
	case b[7] == 255:
		d.clk.Advance(time.Hour)
	case b[7] < 77:
		d.clk.Advance(time.Minute)
	}
	if d.ops%512 == 0 {
		d.check(t)
	}
}

// check compares everything the two sides count.
func (d *pathDiff) check(t testing.TB) {
	t.Helper()
	n, m := d.n, d.m
	if got, want := statsOf(n), m.drops; got != want {
		t.Fatalf("after %d ops: drops %v, map model %v", d.ops, got, want)
	}
	if got, want := n.ProbesSeen(), m.probes; got != want {
		t.Fatalf("after %d ops: ProbesSeen %d, map model %d", d.ops, got, want)
	}
	if got, want := n.Hosts(), len(m.hosts); got != want {
		t.Fatalf("after %d ops: Hosts %d, map model %d", d.ops, got, want)
	}
	for _, p := range []string{"", "x", "x+r", "x+r2"} {
		if got, want := n.BlockedNetworks(p), m.blockedNetworks(p); got != want {
			t.Fatalf("after %d ops: BlockedNetworks(%q) %d, map model %d", d.ops, p, got, want)
		}
		if got, want := n.DetectorBlockEvents(p), m.detectorBlockEvents(p); got != want {
			t.Fatalf("after %d ops: DetectorBlockEvents(%q) %d, map model %d", d.ops, p, got, want)
		}
	}
}

// TestPathTableMatchesMapModel: the dense host table and per-scanner path
// tables answer a seeded schedule of probes, connects and host changes —
// inside, below and above the prefix, through blocks, detectors and injected
// faults — exactly as the map-keyed model they replaced, and count the same.
// The /22 schedule fires every Cause; the /26 starts mid-/24, where the
// table offsets and the geoblock's /24 index are easiest to get wrong.
func TestPathTableMatchesMapModel(t *testing.T) {
	for _, prefix := range []string{"10.0.0.0/22", "10.0.1.64/26"} {
		t.Run(prefix, func(t *testing.T) {
			d := newPathDiff(prefix)
			rng := rand.New(rand.NewSource(5))
			b := make([]byte, 8)
			for range 120_000 {
				rng.Read(b)
				d.step(t, b)
			}
			d.check(t)
			if prefix != "10.0.0.0/22" {
				return
			}
			st := statsOf(d.n)
			for c := Delivered + 1; c < NumCauses; c++ {
				if st[c] == 0 {
					t.Errorf("cause %v never fired: the schedule does not exercise it", c)
				}
			}
			if d.n.DetectorBlockEvents("x+r") == 0 {
				t.Error("no detector block against a rotated identity")
			}
		})
	}
}

// FuzzPathTable: any byte-driven schedule of calls gets the map model's
// answers and counts.
func FuzzPathTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{3, 1, 2, 7, 0, 80, 0, 255, 15, 0, 6, 9, 0, 0, 0, 0}, 64))
	f.Add(bytes.Repeat([]byte{1, 0x81, 9, 200, 1, 53, 0, 10}, 256))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := newPathDiff("10.0.0.0/23")
		for len(data) >= 8 {
			d.step(t, data[:8])
			data = data[8:]
		}
		d.check(t)
	})
}
