package cyclic

import (
	"fmt"
	"net/netip"

	"censysmap/internal/draw"
)

// Space maps a linear index onto an (address, port) probe target, so a single
// Cycle can cover a multi-port scan of an address range — the "sets of cyclic
// groups that cover targeted IPs and ports" of the paper's scan engine.
//
// The index is interpreted as port-major: consecutive indices visit the same
// port across different addresses before moving to the next port. Combined
// with the cycle's pseudorandom order this detail is invisible to consumers,
// but it keeps the mapping trivially invertible.
type Space struct {
	base  netip.Addr // first address, must be IPv4
	hosts uint64     // number of addresses
	ports []uint16   // ports to probe on every address
}

// NewSpace builds a probe space over `hosts` consecutive IPv4 addresses
// starting at base, crossed with the given ports.
func NewSpace(base netip.Addr, hosts uint64, ports []uint16) (*Space, error) {
	if !base.Is4() {
		return nil, fmt.Errorf("cyclic: base address %v is not IPv4", base)
	}
	if hosts == 0 || len(ports) == 0 {
		return nil, ErrEmptySpace
	}
	if hosts > 1<<32 {
		return nil, fmt.Errorf("cyclic: host count %d exceeds IPv4 space", hosts)
	}
	ps := make([]uint16, len(ports))
	copy(ps, ports)
	return &Space{base: base, hosts: hosts, ports: ps}, nil
}

// NewPrefixSpace builds a probe space over every address in an IPv4 prefix.
func NewPrefixSpace(prefix netip.Prefix, ports []uint16) (*Space, error) {
	if !prefix.Addr().Is4() {
		return nil, fmt.Errorf("cyclic: prefix %v is not IPv4", prefix)
	}
	hosts := uint64(1) << (32 - prefix.Bits())
	return NewSpace(prefix.Masked().Addr(), hosts, ports)
}

// Size returns the total number of (address, port) targets.
func (s *Space) Size() uint64 { return s.hosts * uint64(len(s.ports)) }

// Hosts returns the number of addresses covered.
func (s *Space) Hosts() uint64 { return s.hosts }

// Ports returns the port list (shared; do not mutate).
func (s *Space) Ports() []uint16 { return s.ports }

// Target maps index i in [0, Size()) to its (address, port) pair.
func (s *Space) Target(i uint64) (netip.Addr, uint16) {
	host := i % s.hosts
	port := s.ports[i/s.hosts]
	// base + host, wrapping at 2^32.
	return draw.U32Addr(draw.AddrU32(s.base) + uint32(host)), port
}

// Index is the inverse of Target. ok is false if the pair is outside the space.
func (s *Space) Index(addr netip.Addr, port uint16) (uint64, bool) {
	if !addr.Is4() {
		return 0, false
	}
	a, base := draw.AddrU32(addr), draw.AddrU32(s.base)
	off := uint64(a - base)
	if a < base || off >= s.hosts {
		return 0, false
	}
	for pi, p := range s.ports {
		if p == port {
			return uint64(pi)*s.hosts + off, true
		}
	}
	return 0, false
}

// Iterator couples a Space with a Cycle to yield probe targets in
// pseudorandom order with complete coverage.
type Iterator struct {
	space *Space
	cycle *Cycle
}

// NewIterator creates a pseudorandom iterator over the space using the seed.
func NewIterator(space *Space, seed uint64) (*Iterator, error) {
	c, err := New(space.Size(), seed)
	if err != nil {
		return nil, err
	}
	return &Iterator{space: space, cycle: c}, nil
}

// NewShardedIterator creates shard `shard` of `shards` iterators over the
// space; the shards jointly cover every target exactly once.
func NewShardedIterator(space *Space, seed uint64, shard, shards int) (*Iterator, error) {
	c, err := NewShard(space.Size(), seed, shard, shards)
	if err != nil {
		return nil, err
	}
	return &Iterator{space: space, cycle: c}, nil
}

// Next returns the next probe target. ok is false when coverage is complete.
func (it *Iterator) Next() (addr netip.Addr, port uint16, ok bool) {
	i, ok := it.cycle.Next()
	if !ok {
		return netip.Addr{}, 0, false
	}
	a, p := it.space.Target(i)
	return a, p, true
}

// Done reports whether the iterator has covered its whole shard.
func (it *Iterator) Done() bool { return it.cycle.Done() }

// Reset rewinds the iterator to the start of its coverage cycle.
func (it *Iterator) Reset() { it.cycle.Reset() }

// Emitted returns the number of targets produced so far.
func (it *Iterator) Emitted() uint64 { return it.cycle.Emitted() }

// State captures the iterator's position for checkpointing.
func (it *Iterator) State() CycleState { return it.cycle.State() }

// Restore repositions the iterator to a previously captured state. The
// iterator must have been constructed over the same space with the same seed
// and sharding as the one that produced the state.
func (it *Iterator) Restore(st CycleState) { it.cycle.Restore(st) }

// Space returns the underlying probe space.
func (it *Iterator) Space() *Space { return it.space }
