//go:build !race

package search

import (
	"testing"

	"censysmap/internal/entity"
)

// TestUpsertAllocations pins what an upsert allocates. A re-upsert whose
// services are all unchanged builds no fragment: it allocates the entity ID,
// the document and its fragment list. A one-service change also builds that
// service's fragment. The budgets are the measured values; re-tokenizing the
// whole host costs 651. (Race instrumentation changes allocation counts,
// hence the build tag.)
func TestUpsertAllocations(t *testing.T) {
	ix := NewPartitioned(4)
	same := eightServiceHost(0)
	ix.Upsert(same)
	if got := testing.AllocsPerRun(100, func() { ix.Upsert(same) }); got > 3 {
		t.Errorf("unchanged re-upsert: %.1f allocs, budget 3", got)
	}
	versions := []*entity.Host{eightServiceHost(1), eightServiceHost(2)}
	i := 0
	if got := testing.AllocsPerRun(100, func() { ix.Upsert(versions[i%2]); i++ }); got > 14 {
		t.Errorf("one-service change: %.1f allocs, budget 14", got)
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
}
