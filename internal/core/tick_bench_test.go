package core

import (
	"net/netip"
	"strconv"
	"testing"
	"time"

	"censysmap/internal/cqrs"
	"censysmap/internal/entity"
	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
)

// quietMap is a Map over a /22 that is never started: the benchmarks and
// guards below drive its write side directly with synthetic observations.
func quietMap(tb testing.TB) *Map {
	tb.Helper()
	cfg := simnet.DefaultConfig()
	cfg.Prefix = netip.MustParsePrefix("10.0.0.0/22")
	cfg.CloudBlocks = 1
	cfg.WebProperties = 1
	m, err := New(DefaultConfig(), simnet.New(cfg, simclock.New()))
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// webObservation is a successful interrogation of an nginx server on port;
// rev varies its title, so successive revisions are changes.
func webObservation(addr netip.Addr, port uint16, rev int, at time.Time) cqrs.Observation {
	return cqrs.Observation{Addr: addr, Port: port, Transport: entity.TCP, Time: at, PoP: "chi",
		Method: entity.DetectPriorityScan, Success: true, Service: &entity.Service{
			Port: port, Transport: entity.TCP, Protocol: "HTTP", Verified: true,
			Banner: "HTTP/1.1 200 OK",
			Attributes: map[string]string{
				"http.server": "nginx/1.24.0",
				"http.title":  "Welcome " + strconv.Itoa(rev),
				"http.status": "200",
			},
		}}
}

// hostWithServices gives addr n web services on ports 8000.. and drains them.
func hostWithServices(m *Map, addr netip.Addr, n int, at time.Time) {
	for i := range n {
		_ = m.processor.Apply(webObservation(addr, uint16(8000+i), 0, at))
	}
	m.processor.Drain()
}

// BenchmarkDrainEvent is the read side's cost of one write-side event: the
// drain of one changed service of a host holding 1 or 8 services. The
// projection re-fragments and re-derives the changed service only, so the
// cost is flat in the host's service count. The write side applies each
// round's events, one per host, with the timer stopped.
func BenchmarkDrainEvent(b *testing.B) {
	for _, n := range []int{1, 8} {
		b.Run("services"+strconv.Itoa(n), func(b *testing.B) {
			m := quietMap(b)
			at := m.clock.Now()
			addrs := make([]netip.Addr, 64)
			for i := range addrs {
				addrs[i] = netip.AddrFrom4([4]byte{10, 0, 1, byte(i)})
				hostWithServices(m, addrs[i], n, at)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i, rev := 0, 1; i < b.N; rev++ {
				b.StopTimer()
				k := min(len(addrs), b.N-i)
				at = at.Add(time.Second)
				for _, addr := range addrs[:k] {
					_ = m.processor.Apply(webObservation(addr, 8000, rev, at))
				}
				b.StartTimer()
				m.processor.Drain()
				i += k
			}
		})
	}
}

// BenchmarkRefreshFill is the refresh phase's fill: naming the due slots,
// in canonical order, and queueing them. The map holds 1x or 4x the
// services with the same 64 due, so the cost tracks the due slots.
func BenchmarkRefreshFill(b *testing.B) {
	for _, scale := range []int{1, 4} {
		b.Run("services"+strconv.Itoa(1024*scale), func(b *testing.B) {
			m := quietMap(b)
			t0 := m.clock.Now()
			fresh := t0.Add(refreshEvery - time.Hour)
			for h := range 256 * scale {
				addr := netip.AddrFrom4([4]byte{10, 0, byte(h >> 8), byte(h)})
				for p := range 4 {
					at := fresh
					if h < 16 {
						at = t0 // 16 hosts' 4 services, at either scale, are due
					}
					_ = m.processor.Apply(webObservation(addr, uint16(8000+p), 0, at))
				}
			}
			m.processor.Drain()
			now := t0.Add(refreshEvery)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.refreshDue(now)
				queued := 0
				for _, s := range m.shards {
					queued += len(s.pending)
					clear(s.pending)
					s.pending = s.pending[:0]
				}
				if queued != 64 {
					b.Fatalf("%d slots queued, want 64", queued)
				}
			}
		})
	}
}
