//go:build !race

package webprop

import (
	"slices"
	"testing"
	"time"
)

// TestSteadyTickAllocatesNothing: a tick over a queue of names none of
// which is due rotates it without allocating. (Race instrumentation
// changes allocation counts, hence the build tag.)
func TestSteadyTickAllocatesNothing(t *testing.T) {
	p, net, clk := fixture(t)
	p.PollCT(net.CT, clk.Now())
	p.Tick(clk.Now())
	clk.Advance(time.Hour)
	now := clk.Now()
	before := queueOf(p)
	if got := testing.AllocsPerRun(50, func() { p.Tick(now) }); got != 0 {
		t.Fatalf("a steady tick allocates %.1f times", got)
	}
	if !slices.Equal(queueOf(p), before) {
		t.Fatal("a tick that visits every name changed the queue's order")
	}
}
