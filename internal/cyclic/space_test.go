package cyclic

import (
	"net/netip"
	"testing"
	"testing/quick"

	"censysmap/internal/draw"
)

func mustSpace(t *testing.T, base string, hosts uint64, ports []uint16) *Space {
	t.Helper()
	s, err := NewSpace(netip.MustParseAddr(base), hosts, ports)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// index is the inverse of Target, the oracle these tests check it against.
// ok is false if the pair is outside the space.
func (s *Space) index(addr netip.Addr, port uint16) (uint64, bool) {
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

func TestSpaceTargetRoundTrip(t *testing.T) {
	s := mustSpace(t, "10.0.0.0", 256, []uint16{80, 443, 22})
	for i := uint64(0); i < s.Size(); i++ {
		addr, port := s.Target(i)
		j, ok := s.index(addr, port)
		if !ok || j != i {
			t.Fatalf("round trip %d -> (%v,%d) -> %d ok=%v", i, addr, port, j, ok)
		}
	}
}

func TestSpaceSize(t *testing.T) {
	s := mustSpace(t, "10.0.0.0", 1000, []uint16{80, 443})
	if s.Size() != 2000 {
		t.Fatalf("Size() = %d, want 2000", s.Size())
	}
	if s.hosts != 1000 {
		t.Fatalf("hosts = %d, want 1000", s.hosts)
	}
}

func TestSpaceTargetAddresses(t *testing.T) {
	s := mustSpace(t, "192.168.1.0", 4, []uint16{80})
	want := []string{"192.168.1.0", "192.168.1.1", "192.168.1.2", "192.168.1.3"}
	for i, w := range want {
		addr, port := s.Target(uint64(i))
		if addr.String() != w || port != 80 {
			t.Fatalf("Target(%d) = (%v,%d), want (%s,80)", i, addr, port, w)
		}
	}
}

func TestNewPrefixSpace(t *testing.T) {
	s, err := NewPrefixSpace(netip.MustParsePrefix("10.1.0.0/24"), []uint16{443})
	if err != nil {
		t.Fatal(err)
	}
	if s.hosts != 256 {
		t.Fatalf("hosts = %d, want 256", s.hosts)
	}
	addr, _ := s.Target(0)
	if addr.String() != "10.1.0.0" {
		t.Fatalf("Target(0) addr = %v, want 10.1.0.0", addr)
	}
}

func TestNewPrefixSpaceMasks(t *testing.T) {
	s, err := NewPrefixSpace(netip.MustParsePrefix("10.1.0.77/24"), []uint16{443})
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := s.Target(0)
	if addr.String() != "10.1.0.0" {
		t.Fatalf("prefix not masked: Target(0) = %v", addr)
	}
}

func TestNewSpaceErrors(t *testing.T) {
	if _, err := NewSpace(netip.MustParseAddr("::1"), 10, []uint16{80}); err == nil {
		t.Fatal("IPv6 base accepted")
	}
	if _, err := NewSpace(netip.MustParseAddr("10.0.0.0"), 0, []uint16{80}); err == nil {
		t.Fatal("zero hosts accepted")
	}
	if _, err := NewSpace(netip.MustParseAddr("10.0.0.0"), 10, nil); err == nil {
		t.Fatal("empty ports accepted")
	}
	if _, err := NewPrefixSpace(netip.MustParsePrefix("::/64"), []uint16{80}); err == nil {
		t.Fatal("IPv6 prefix accepted")
	}
}

func TestIteratorFullCoverage(t *testing.T) {
	s := mustSpace(t, "10.0.0.0", 64, []uint16{80, 443, 8080})
	it, err := NewIterator(s, 11)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[2]uint64]bool)
	for {
		addr, port, ok := it.Next()
		if !ok {
			break
		}
		key := [2]uint64{uint64(draw.AddrU32(addr)), uint64(port)}
		if seen[key] {
			t.Fatalf("target (%v,%d) repeated", addr, port)
		}
		seen[key] = true
	}
	if uint64(len(seen)) != s.Size() {
		t.Fatalf("covered %d targets, want %d", len(seen), s.Size())
	}
	if it.cycle.steps < it.cycle.maxStep {
		t.Fatal("iterator not Done after exhaustion")
	}
}

func TestShardedIteratorsPartition(t *testing.T) {
	s := mustSpace(t, "10.0.0.0", 50, []uint16{80, 22})
	counts := make(map[[2]uint64]int)
	const shards = 4
	for sh := 0; sh < shards; sh++ {
		it, err := NewShardedIterator(s, 3, sh, shards)
		if err != nil {
			t.Fatal(err)
		}
		for {
			addr, port, ok := it.Next()
			if !ok {
				break
			}
			counts[[2]uint64{uint64(draw.AddrU32(addr)), uint64(port)}]++
		}
	}
	if uint64(len(counts)) != s.Size() {
		t.Fatalf("shards covered %d targets, want %d", len(counts), s.Size())
	}
	for k, c := range counts {
		if c != 1 {
			t.Fatalf("target %v covered %d times", k, c)
		}
	}
}

func TestIteratorReset(t *testing.T) {
	s := mustSpace(t, "10.0.0.0", 32, []uint16{80})
	it, _ := NewIterator(s, 5)
	a1, p1, _ := it.Next()
	it.Reset()
	a2, p2, _ := it.Next()
	if a1 != a2 || p1 != p2 {
		t.Fatalf("Reset did not rewind: (%v,%d) vs (%v,%d)", a1, p1, a2, p2)
	}
	if it.cycle.emitted != 1 {
		t.Fatalf("emitted = %d, want 1", it.cycle.emitted)
	}
}

func TestAddrArithmeticQuick(t *testing.T) {
	s := mustSpace(t, "10.0.0.0", 1<<24, []uint16{80})
	f := func(off uint32) bool {
		a, _ := s.Target(uint64(off % 1 << 24))
		d, ok := s.index(a, 80)
		return ok && d == uint64(off%1<<24)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddAddrWraps(t *testing.T) {
	s := mustSpace(t, "255.255.255.255", 2, []uint16{80})
	if a, _ := s.Target(1); a.String() != "0.0.0.0" {
		t.Fatalf("wrap = %v, want 0.0.0.0", a)
	}
}
