package predict

// The checkpoint's binary sections. Each bulk field of State travels as one
// JSON string holding the base64 of a strict binrec body
// (binrec.DecodeSection), written and read here. Every run is sorted, so one
// state has one encoding:
//
//	suggested       := n:uvarint (target at:time){n}
//	evicted         := n:uvarint (target at:time [last_retry:time]){n}
//	target          := addr:uvarint port:uvarint code:u8
//	host_ports      := n:uvarint (addr:next m:uvarint (port:next<<1 | transport){m}){n}
//	cooc, full_cooc := n:uvarint (q:next counts){n}
//	full_port_hosts := counts
//	counts          := m:uvarint (p:next count:varint){m}
//	full_hosts      := n:uvarint addr:next{n}
//
// Targets ascend strictly by (addr, port, transport, reason). A target's addr
// is the gap from the previous target's (the first's from 0.0.0.0), its port
// the gap from the previous port on the same address and absolute on a new
// one; code is transport<<2 | reason, each a small code in string order, plus
// hasLastRetry when last_retry is present (it is absent when zero). A time is
// binrec.AppendTime against the previous entry's at (last_retry against its
// own entry's, the first at against 0). next is binrec.AppendNext's gap in a
// strictly ascending run, and transport is its code. Addresses are IPv4, as
// is everything the engine models; a state that holds anything the codes do
// not name fails to encode rather than change.

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"net/netip"
	"slices"
	"time"

	"censysmap/internal/binrec"
	"censysmap/internal/draw"
	"censysmap/internal/entity"
)

// Suggestions is the cooldown book, sorted by target.
type Suggestions []SuggestedEntry

// Evictions is the re-injection queue, sorted by target.
type Evictions []EvictedState

// HostPorts is each known host's confirmed ports.
type HostPorts map[netip.Addr]map[uint16]entity.Transport

// PortPairs counts, for each port q, the co-occurrences of every port p with
// it.
type PortPairs map[uint16]map[uint16]int

// SamplePortPairs is PortPairs over the fully scanned sample: the same
// encoding, in the full_cooc section.
type SamplePortPairs PortPairs

// PortCounts counts hosts per port.
type PortCounts map[uint16]int

// Hosts is an ascending set of host addresses.
type Hosts []netip.Addr

var (
	transportCodes = [...]entity.Transport{entity.TCP, entity.UDP}
	reasonCodes    = [...]string{"cooc", "expand", "net24", "reinject"}
)

const (
	targetCodes  = 7  // the code byte's transport and reason bits
	hasLastRetry = 16 // the code byte's flag for an evicted entry's last_retry
)

// targetRun is the cursor a target run is written and read with: the
// previous target and time.
type targetRun struct {
	n    int
	addr uint32
	port uint16
	code byte
	at   int64
}

func (c *targetRun) append(dst []byte, t Target, at time.Time, flags byte) ([]byte, error) {
	ti := slices.Index(transportCodes[:], t.Transport)
	ri := slices.Index(reasonCodes[:], t.Reason)
	if ti < 0 || ri < 0 || !t.Addr.Is4() {
		return nil, fmt.Errorf("predict: target %v has no checkpoint code", t)
	}
	addr, code := draw.AddrU32(t.Addr), byte(ti<<2|ri)
	same := c.n > 0 && addr == c.addr
	if c.n > 0 && (addr < c.addr || same && (t.Port < c.port || t.Port == c.port && code <= c.code)) {
		return nil, fmt.Errorf("predict: checkpoint targets out of order at %v", t)
	}
	dst = binary.AppendUvarint(dst, uint64(addr-c.addr))
	if same {
		dst = binary.AppendUvarint(dst, uint64(t.Port-c.port))
	} else {
		dst = binary.AppendUvarint(dst, uint64(t.Port))
	}
	dst = binrec.AppendTime(append(dst, code|flags), at, c.at)
	c.n, c.addr, c.port, c.code, c.at = c.n+1, addr, t.Port, code, at.Unix()
	return dst, nil
}

// read reads the next target and its at; flags outside allowed fail.
func (c *targetRun) read(r *binrec.Reader, allowed byte) (Target, time.Time, byte) {
	gap := r.Uvarint("target address")
	port := r.Uvarint("target port")
	b := r.Byte("target code")
	same := c.n > 0 && gap == 0
	if same && port <= math.MaxUint16 {
		port += uint64(c.port)
	}
	code := b & targetCodes
	switch {
	case r.Err != nil:
	case gap > uint64(math.MaxUint32-c.addr):
		r.Fail("target address: out of range")
	case port > math.MaxUint16:
		r.Fail("target port: out of range")
	case b&^(targetCodes|allowed) != 0:
		r.Fail("target code: unknown")
	case same && uint16(port) == c.port && code <= c.code:
		r.Fail("targets out of order")
	}
	at := r.Time("at", c.at)
	if r.Err != nil {
		return Target{}, time.Time{}, 0
	}
	c.n, c.addr, c.port, c.code, c.at = c.n+1, c.addr+uint32(gap), uint16(port), code, at.Unix()
	t := Target{Addr: draw.U32Addr(c.addr), Port: c.port,
		Transport: transportCodes[code>>2], Reason: reasonCodes[code&3]}
	return t, at, b &^ targetCodes
}

func (s Suggestions) MarshalJSON() ([]byte, error) {
	dst := binary.AppendUvarint(nil, uint64(len(s)))
	var run targetRun
	for _, e := range s {
		var err error
		if dst, err = run.append(dst, e.Target, e.At, 0); err != nil {
			return nil, err
		}
	}
	return binrec.AppendSection(nil, dst), nil
}

func (s *Suggestions) UnmarshalJSON(data []byte) error {
	return binrec.DecodeSection("suggested", data, func(r *binrec.Reader) {
		out := make(Suggestions, r.Items("suggested"))
		var run targetRun
		for i := range out {
			out[i].Target, out[i].At, _ = run.read(r, 0)
		}
		*s = out
	})
}

func (ev Evictions) MarshalJSON() ([]byte, error) {
	dst := binary.AppendUvarint(nil, uint64(len(ev)))
	var run targetRun
	for _, e := range ev {
		var flags byte
		if !e.LastRetry.IsZero() {
			flags = hasLastRetry
		}
		var err error
		if dst, err = run.append(dst, e.Target, e.At, flags); err != nil {
			return nil, err
		}
		if flags != 0 {
			dst = binrec.AppendTime(dst, e.LastRetry, e.At.Unix())
		}
	}
	return binrec.AppendSection(nil, dst), nil
}

func (ev *Evictions) UnmarshalJSON(data []byte) error {
	return binrec.DecodeSection("evicted", data, func(r *binrec.Reader) {
		out := make(Evictions, r.Items("evicted"))
		var run targetRun
		for i := range out {
			e := &out[i]
			var flags byte
			e.Target, e.At, flags = run.read(r, hasLastRetry)
			if flags != 0 {
				if e.LastRetry = r.Time("last_retry", e.At.Unix()); e.LastRetry.IsZero() {
					r.Fail("last_retry: present but zero")
				}
			}
		}
		*ev = out
	})
}

func (h HostPorts) MarshalJSON() ([]byte, error) {
	dst := binary.AppendUvarint(nil, uint64(len(h)))
	prev := int64(-1)
	var ports []uint16
	for _, a := range slices.SortedFunc(maps.Keys(h), netip.Addr.Compare) {
		if !a.Is4() {
			return nil, fmt.Errorf("predict: host %v is not IPv4", a)
		}
		dst = binrec.AppendNext(dst, prev, int64(draw.AddrU32(a)))
		prev = int64(draw.AddrU32(a))
		ports = slices.AppendSeq(ports[:0], maps.Keys(h[a]))
		slices.Sort(ports)
		dst = binary.AppendUvarint(dst, uint64(len(ports)))
		pp := int64(-1)
		for _, p := range ports {
			tc := slices.Index(transportCodes[:], h[a][p])
			if tc < 0 {
				return nil, fmt.Errorf("predict: host %v port %d has no transport code", a, p)
			}
			dst = binary.AppendUvarint(dst, uint64(int64(p)-pp-1)<<1|uint64(tc))
			pp = int64(p)
		}
	}
	return binrec.AppendSection(nil, dst), nil
}

func (h *HostPorts) UnmarshalJSON(data []byte) error {
	return binrec.DecodeSection("host_ports", data, func(r *binrec.Reader) {
		n := r.Items("hosts")
		out := make(HostPorts, n)
		prev := int64(-1)
		for range n {
			prev = r.Next("host address", prev, math.MaxUint32)
			m := r.Items("ports")
			ports := make(map[uint16]entity.Transport, m)
			pp := int64(-1)
			for range m {
				v := r.Uvarint("port")
				if v>>1 > math.MaxUint16 || pp+1+int64(v>>1) > math.MaxUint16 {
					r.Fail("port: out of range")
				}
				if r.Err != nil {
					return
				}
				pp += 1 + int64(v>>1)
				ports[uint16(pp)] = transportCodes[v&1]
			}
			out[draw.U32Addr(uint32(prev))] = ports
		}
		*h = out
	})
}

func appendCounts(dst []byte, m map[uint16]int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m)))
	prev := int64(-1)
	for _, p := range slices.Sorted(maps.Keys(m)) {
		dst = binary.AppendVarint(binrec.AppendNext(dst, prev, int64(p)), int64(m[p]))
		prev = int64(p)
	}
	return dst
}

func readCounts(r *binrec.Reader) map[uint16]int {
	m := r.Items("ports")
	out := make(map[uint16]int, m)
	prev := int64(-1)
	for range m {
		prev = r.Next("port", prev, math.MaxUint16)
		out[uint16(prev)] = int(r.Varint("count"))
	}
	return out
}

func (pp PortPairs) MarshalJSON() ([]byte, error) {
	dst := binary.AppendUvarint(nil, uint64(len(pp)))
	prev := int64(-1)
	for _, q := range slices.Sorted(maps.Keys(pp)) {
		dst = appendCounts(binrec.AppendNext(dst, prev, int64(q)), pp[q])
		prev = int64(q)
	}
	return binrec.AppendSection(nil, dst), nil
}

func (pp *PortPairs) UnmarshalJSON(data []byte) error {
	return pp.decode("cooc", data)
}

func (pp SamplePortPairs) MarshalJSON() ([]byte, error) {
	return PortPairs(pp).MarshalJSON()
}

func (pp *SamplePortPairs) UnmarshalJSON(data []byte) error {
	return (*PortPairs)(pp).decode("full_cooc", data)
}

// decode reads a co-occurrence section; its errors name the section.
func (pp *PortPairs) decode(section string, data []byte) error {
	return binrec.DecodeSection(section, data, func(r *binrec.Reader) {
		n := r.Items("ports")
		out := make(PortPairs, n)
		prev := int64(-1)
		for range n {
			prev = r.Next("port", prev, math.MaxUint16)
			out[uint16(prev)] = readCounts(r)
		}
		*pp = out
	})
}

func (pc PortCounts) MarshalJSON() ([]byte, error) {
	return binrec.AppendSection(nil, appendCounts(nil, pc)), nil
}

func (pc *PortCounts) UnmarshalJSON(data []byte) error {
	return binrec.DecodeSection("full_port_hosts", data, func(r *binrec.Reader) {
		*pc = readCounts(r)
	})
}

func (h Hosts) MarshalJSON() ([]byte, error) {
	dst := binary.AppendUvarint(nil, uint64(len(h)))
	prev := int64(-1)
	for _, a := range h {
		if !a.Is4() || int64(draw.AddrU32(a)) <= prev {
			return nil, fmt.Errorf("predict: full host %v is not IPv4 or out of order", a)
		}
		dst = binrec.AppendNext(dst, prev, int64(draw.AddrU32(a)))
		prev = int64(draw.AddrU32(a))
	}
	return binrec.AppendSection(nil, dst), nil
}

func (h *Hosts) UnmarshalJSON(data []byte) error {
	return binrec.DecodeSection("full_hosts", data, func(r *binrec.Reader) {
		out := make(Hosts, r.Items("hosts"))
		prev := int64(-1)
		for i := range out {
			prev = r.Next("host address", prev, math.MaxUint32)
			out[i] = draw.U32Addr(uint32(prev))
		}
		*h = out
	})
}
