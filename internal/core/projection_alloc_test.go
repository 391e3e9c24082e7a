//go:build !race

package core

import (
	"net/netip"
	"runtime"
	"testing"
	"time"

	"censysmap/internal/entity"
)

// TestFoundEventAllocationsFlat: the read side's cost of a found event does
// not grow with the services its host already holds — a host with 1 and
// one with 8 allocate the same to project it. Each run finds port 9000 on
// the host, drains (measured), and retires it again. (Race
// instrumentation changes allocation counts, hence the build tag.)
func TestFoundEventAllocationsFlat(t *testing.T) {
	perEvent := func(n int) uint64 {
		m := quietMap(t)
		addr := netip.MustParseAddr("10.0.2.9")
		at := m.clock.Now()
		hostWithServices(m, addr, n, at)
		key := entity.ServiceKey{Port: 9000, Transport: entity.TCP}
		var before, after runtime.MemStats
		var total uint64
		const warm, runs = 3, 40
		for i := range warm + runs {
			at = at.Add(time.Minute)
			_ = m.processor.Apply(webObservation(addr, key.Port, 0, at))
			runtime.ReadMemStats(&before)
			m.processor.Drain()
			runtime.ReadMemStats(&after)
			if i >= warm {
				total += after.Mallocs - before.Mallocs
			}
			_ = m.processor.Retire(addr, key, at)
			m.processor.Drain()
		}
		if !m.index.Has(addr.String()) {
			t.Fatalf("%d services: the host left the index", n)
		}
		return total / runs
	}
	one, eight := perEvent(1), perEvent(8)
	t.Logf("a found event allocates %d times on a host with 1 service, %d with 8", one, eight)
	if one != eight {
		t.Fatalf("a found event allocates %d times on a host with 1 service, %d with 8", one, eight)
	}
}
