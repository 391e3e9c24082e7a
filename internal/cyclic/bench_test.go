package cyclic

import (
	"net/netip"
	"testing"
)

func BenchmarkCycleNext(b *testing.B) {
	c, err := New(1<<32, 42) // full IPv4-sized space
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Next(); !ok {
			c.Reset()
		}
	}
}

func BenchmarkIteratorNext(b *testing.B) {
	space, err := NewPrefixSpace(netip.MustParsePrefix("10.0.0.0/16"), allBenchPorts())
	if err != nil {
		b.Fatal(err)
	}
	it, err := NewIterator(space, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := it.Next(); !ok {
			it.Reset()
		}
	}
}

// BenchmarkIteratorNextU32 is the step discovery's probe loop takes: a
// power-of-two host count, so no division anywhere.
func BenchmarkIteratorNextU32(b *testing.B) {
	space, err := NewPrefixSpace(netip.MustParsePrefix("10.0.0.0/16"), allBenchPorts())
	if err != nil {
		b.Fatal(err)
	}
	it, err := NewIterator(space, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := it.NextU32(); !ok {
			it.Reset()
		}
	}
}

func BenchmarkNewCycleSetup(b *testing.B) {
	// Prime search + generator derivation for a 65K-port /16 space.
	for i := 0; i < b.N; i++ {
		if _, err := New(uint64(1<<16)*65535, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func allBenchPorts() []uint16 {
	ports := make([]uint16, 100)
	for i := range ports {
		ports[i] = uint16(i + 1)
	}
	return ports
}
