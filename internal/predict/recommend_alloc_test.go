//go:build !race

package predict

import (
	"testing"
	"time"
)

// The !race tag: the race detector instruments allocations, which breaks
// testing.AllocsPerRun's counts.

// TestRecommendSteadyStateAllocs holds Recommend on a model no observation is
// changing to a small fraction of what re-selecting every top list per host
// cost (32 488 allocations per call at this size): what is left is the
// returned slice and the cooldown book growing.
func TestRecommendSteadyStateAllocs(t *testing.T) {
	eng := benchModel()
	now := benchStart
	eng.Recommend(now, 400) // build the lists
	avg := testing.AllocsPerRun(48, func() {
		now = now.Add(time.Hour)
		eng.Recommend(now, 400)
	})
	if avg > 325 {
		t.Fatalf("Recommend: %.0f allocs/call on a steady 2 000-host model, want <= 325", avg)
	}
}
