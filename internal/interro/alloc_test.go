//go:build !race

package interro

import (
	"runtime"
	"testing"

	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
)

// TestHTTPInterrogationBytes bounds what one successful plain-HTTP
// interrogation allocates. Every read hands out only the bytes that arrived
// and borrows pooled scratch, so the op costs ~3.7 KB; a fresh 2 KB banner
// buffer and a fresh 4 KB buffer per read cost ~9.8 KB. (Race
// instrumentation changes allocation, hence the build tag.)
func TestHTTPInterrogationBytes(t *testing.T) {
	clk := simclock.New()
	net := simnet.New(quietConfig(), clk)
	in := New(net, scanner)
	var ref simnet.ServiceRef
	for _, r := range net.LiveServices(clk.Now(), false) {
		if r.Protocol == "HTTP" && r.Port == 80 {
			obs := in.Interrogate(candidateFor(r), clk.Now())
			if obs.Success && obs.Service.Verified && !obs.Service.TLS {
				ref = r
				break
			}
		}
	}
	if !ref.Addr.IsValid() {
		t.Fatal("no plain HTTP service on port 80")
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		in.Interrogate(candidateFor(ref), clk.Now())
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f B/op", perOp)
	if perOp > 8<<10 {
		t.Fatalf("HTTP interrogation allocates %.0f B/op, budget 8 KB", perOp)
	}
}
