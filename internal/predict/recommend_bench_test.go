package predict

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"censysmap/internal/entity"
)

var benchStart = time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)

// benchModel teaches an engine a /20-shaped dataset the size serve_live
// reaches: sixteen /24s, 2 000 hosts, about two services a host drawn from a
// skewed port list, with a sample of fully scanned hosts.
func benchModel() *Engine {
	ports := []uint16{80, 443, 22, 8080, 25, 3306, 8443, 53, 21, 5432, 6379, 9200, 2222, 445, 502, 1883}
	rng := rand.New(rand.NewSource(1))
	eng := New(DefaultConfig())
	for h := 0; h < 2000; h++ {
		addr := netip.AddrFrom4([4]byte{10, 0, byte(h % 16), byte(1 + h/16)})
		if h%25 == 0 {
			eng.ObserveFull(addr)
		}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			eng.Observe(addr, ports[rng.Intn(1+rng.Intn(len(ports)))], entity.TCP)
		}
	}
	return eng
}

// BenchmarkRecommend is one scheduler tick's Recommend call at serve_live's
// model size and budget, an hour of simulated time apart so the cooldown
// book fills and expires as it does in a run.
func BenchmarkRecommend(b *testing.B) {
	eng := benchModel()
	now := benchStart
	b.ReportAllocs()
	for b.Loop() {
		now = now.Add(time.Hour)
		eng.Recommend(now, 400)
	}
}
