package chaos

import (
	"fmt"
	"testing"

	"censysmap/internal/simnet"
)

// TestCrashRecoveryDifferential is the core crash-recovery contract: kill
// the pipeline at an arbitrary tick, rebuild the write model from the
// partitioned journal plus the latest snapshot, restore the rest from a
// JSON-round-tripped checkpoint, finish the run — and end bit-identical to
// the run that never crashed. Five (universe seed, crash tick) pairs, with
// fault mixes from none to severe.
func TestCrashRecoveryDifferential(t *testing.T) {
	cases := []struct {
		seed  uint64
		fault simnet.AdversaryConfig
		ticks int
		crash int
	}{
		{seed: 1, fault: simnet.AdversaryConfig{}, ticks: 26, crash: 3},
		{seed: 2, fault: preset("mild", 21), ticks: 26, crash: 7},
		{seed: 3, fault: preset("severe", 33), ticks: 26, crash: 13},
		{seed: 4, fault: preset("mild", 44), ticks: 30, crash: 25}, // past the daily refresh
		{seed: 5, fault: preset("severe", 55), ticks: 26, crash: 19},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("seed%d_crash%d", c.seed, c.crash), func(t *testing.T) {
			t.Parallel()
			spec := Lab(c.seed, c.fault, c.ticks)

			base := mustComplete(t, spec)
			crashed, err := CompleteWithCrash(spec, c.crash)
			if err != nil {
				t.Fatal(err)
			}

			want := mustObserve(t, base.Map)
			got := mustObserve(t, crashed.Map)
			if d := Diff(want, got); len(d) > 0 {
				t.Fatalf("resumed run diverged from uninterrupted run: %v", d)
			}
			// The resumed process re-issues no probes: the fault schedules
			// (and thus every path-sequence draw) must line up exactly.
			if bs, cs := base.Net.PathStats(), crashed.Net.PathStats(); bs != cs {
				t.Fatalf("fault schedule diverged across crash: %+v vs %+v", bs, cs)
			}
		})
	}
}

// TestCrashRecoveryAcrossLayouts: crash under one Shards/InterroWorkers
// layout, resume under a different one. The checkpoint is layout-free and
// journal routing is by entity hash, so this must still converge to the
// uninterrupted result.
func TestCrashRecoveryAcrossLayouts(t *testing.T) {
	spec := Lab(8, preset("mild", 77), 26)

	base := mustComplete(t, spec)

	r, err := Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	r.Step(9)
	d, cp, err := r.Crash()
	if err != nil {
		t.Fatal(err)
	}
	// Resume with a different layout.
	r.spec.Pipeline.Shards = 3
	r.spec.Pipeline.InterroWorkers = 2
	if err := r.Resume(d, cp); err != nil {
		t.Fatal(err)
	}
	r.Step(spec.Ticks - 9)

	if diff := Diff(mustObserve(t, base.Map), mustObserve(t, r.Map)); len(diff) > 0 {
		t.Fatalf("layout-changing resume diverged: %v", diff)
	}
}

// TestDoubleCrash: two crashes in one run — recovery must compose.
func TestDoubleCrash(t *testing.T) {
	spec := Lab(9, preset("severe", 66), 26)

	base := mustComplete(t, spec)

	r, err := Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, crashAt := range []int{6, 17} {
		r.Step(crashAt - r.Tick())
		d, cp, err := r.Crash()
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Resume(d, cp); err != nil {
			t.Fatal(err)
		}
	}
	r.Step(spec.Ticks - r.Tick())

	if diff := Diff(mustObserve(t, base.Map), mustObserve(t, r.Map)); len(diff) > 0 {
		t.Fatalf("double-crash run diverged: %v", diff)
	}
}
