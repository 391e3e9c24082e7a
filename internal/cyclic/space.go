package cyclic

import (
	"fmt"
	"math/bits"
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
	base  uint32   // first address
	hosts uint64   // number of addresses
	ports []uint16 // ports to probe on every address
	// shift is log2(hosts) when hosts is a power of two, so target splits an
	// index with a shift and a mask; -1 otherwise, and target divides.
	shift int
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
	shift := -1
	if hosts&(hosts-1) == 0 {
		shift = bits.TrailingZeros64(hosts)
	}
	return &Space{base: draw.AddrU32(base), hosts: hosts, ports: ps, shift: shift}, nil
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

// target maps index i in [0, Size()) to its (address, port) pair, the
// address as a uint32.
func (s *Space) target(i uint64) (uint32, uint16) {
	var host, port uint64
	if s.shift >= 0 {
		host, port = i&(s.hosts-1), i>>s.shift
	} else {
		host, port = i%s.hosts, i/s.hosts
	}
	// base + host, wrapping at 2^32.
	return s.base + uint32(host), s.ports[port]
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
	a, port, ok := it.NextU32()
	if !ok {
		return netip.Addr{}, 0, false
	}
	return draw.U32Addr(a), port, true
}

// NextU32 is Next with the address as a uint32 (draw.AddrU32's form), for a
// probe loop that builds a netip.Addr only for the targets that answer.
func (it *Iterator) NextU32() (addr uint32, port uint16, ok bool) {
	i, ok := it.cycle.Next()
	if !ok {
		return 0, 0, false
	}
	addr, port = it.space.target(i)
	return addr, port, true
}

// Reset rewinds the iterator to the start of its coverage cycle.
func (it *Iterator) Reset() { it.cycle.Reset() }

// State captures the iterator's position for checkpointing.
func (it *Iterator) State() CycleState { return it.cycle.State() }

// Restore repositions the iterator to a previously captured state. The
// iterator must have been constructed over the same space with the same seed
// and sharding as the one that produced the state.
func (it *Iterator) Restore(st CycleState) { it.cycle.Restore(st) }
