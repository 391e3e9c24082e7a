package chaos

import (
	"encoding/json"
	"testing"
	"time"

	"censysmap/internal/core"
	"censysmap/internal/simnet"
)

// faultCauses are the drop causes a chaos Config returns.
var faultCauses = []simnet.Cause{simnet.CauseFaultBlock, simnet.CauseFaultStorm,
	simnet.CauseFaultBurst, simnet.CauseFaultTimeout, simnet.CauseFaultLoss}

// injected is how many of the path's drops the chaos Config caused.
func injected(s simnet.PathStats) uint64 {
	var n uint64
	for _, c := range faultCauses {
		n += s[c]
	}
	return n
}

func mustComplete(t *testing.T, spec RunSpec) *Run {
	t.Helper()
	r, err := Complete(spec)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustObserve(t *testing.T, m *core.Map) Observation {
	t.Helper()
	o, err := Observe(m)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestSameSeedSameSchedule: a chaos seed names one exact fault schedule —
// two runs of the same spec inject identical drops of every kind and end in
// identical externally visible state.
func TestSameSeedSameSchedule(t *testing.T) {
	spec := Lab(7, Severe(42), 24)
	r1 := mustComplete(t, spec)
	r2 := mustComplete(t, spec)

	s1, s2 := r1.Net.PathStats(), r2.Net.PathStats()
	if s1 != s2 {
		t.Fatalf("fault schedules diverged: %+v vs %+v", s1, s2)
	}
	if injected(s1) == 0 {
		t.Fatal("severe config injected no faults")
	}
	if d := Diff(mustObserve(t, r1.Map), mustObserve(t, r2.Map)); len(d) > 0 {
		t.Fatalf("same-seed runs diverged: %v", d)
	}
}

// TestFaultKindsAllFire: every injector code path fires. The lab universe
// has only two /24s and the run spans two day-windows, so the blocking rate
// is cranked far above Severe's to get draws that actually land.
func TestFaultKindsAllFire(t *testing.T) {
	spec := Lab(7, Config{Seed: 42, Loss: 0.05, BurstRate: 0.2, BurstLoss: 0.6,
		StormRate: 0.1, BlockRate: 0.4, TimeoutRate: 0.1}, 24)
	r := mustComplete(t, spec)
	s := r.Net.PathStats()
	for _, c := range faultCauses {
		if s[c] == 0 {
			t.Errorf("fault kind %v never fired: %+v", c, s)
		}
	}
}

// TestLayoutInvarianceUnderFaults: the PR-1 determinism contract holds under
// chaos too — Shards and InterroWorkers must not change the fault schedule,
// the dataset, the journals, or any query answer. The second universe's
// rate threshold is low enough to trip: which probe trips a block, and so
// everything the block eats, is decided by serial discovery probes alone.
func TestLayoutInvarianceUnderFaults(t *testing.T) {
	faults := Lab(11, Severe(99), 24)
	blocking := Lab(11, Mild(99), 24)
	blocking.Net.BlockThreshold = 1
	blocking.Net.BlockDuration = 6 * time.Hour
	blocking.Pipeline.SourceIPs = 8

	for name, base := range map[string]RunSpec{"faults": faults, "rate blocks": blocking} {
		var ref Observation
		var refDrops simnet.PathStats
		for i, l := range [][2]int{{1, 1}, {8, 4}, {3, 2}} {
			spec := base
			spec.Pipeline.Shards = l[0]
			spec.Pipeline.InterroWorkers = l[1]
			r := mustComplete(t, spec)
			o := mustObserve(t, r.Map)
			if i == 0 {
				ref, refDrops = o, r.Net.PathStats()
				continue
			}
			if got := r.Net.PathStats(); got != refDrops {
				t.Fatalf("%s: layout %v changed the drop schedule: %+v vs %+v", name, l, got, refDrops)
			}
			if d := Diff(ref, o); len(d) > 0 {
				t.Fatalf("%s: layout %v changed the outcome: %v", name, l, d)
			}
		}
		if name == "rate blocks" && refDrops[simnet.CauseRateBlock] == 0 {
			t.Fatalf("BlockThreshold %d never tripped: %+v", base.Net.BlockThreshold, refDrops)
		}
	}
}

// TestCheckpointLayoutInvariant: a checkpoint is canonical — two pipelines
// in different Shards/InterroWorkers layouts checkpoint to identical bytes.
func TestCheckpointLayoutInvariant(t *testing.T) {
	base := Lab(5, Mild(5), 10)

	var ref []byte
	for i, l := range [][2]int{{1, 1}, {8, 4}} {
		spec := base
		spec.Pipeline.Shards = l[0]
		spec.Pipeline.InterroWorkers = l[1]
		r, err := Start(spec)
		if err != nil {
			t.Fatal(err)
		}
		r.Step(spec.Ticks)
		blob, err := json.Marshal(r.Map.Checkpoint())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = blob
			continue
		}
		if string(blob) != string(ref) {
			t.Fatalf("checkpoint bytes differ across layouts %d vs %d", len(ref), len(blob))
		}
	}
}

// TestZeroFaultConfigMatchesBaseline: a zero-value fault Config must be an
// exact no-op — byte-identical to a run without the chaos layer in the loop
// at all.
func TestZeroFaultConfigMatchesBaseline(t *testing.T) {
	spec := Lab(13, Config{}, 12)
	withInjector := mustComplete(t, spec)
	if n := injected(withInjector.Net.PathStats()); n != 0 {
		t.Fatalf("zero config injected %d drops", n)
	}

	// Same spec, but no injector attached at all.
	bare, err := Start(RunSpec{Prefix: spec.Prefix, UniverseSeed: spec.UniverseSeed,
		Net: spec.Net, Pipeline: spec.Pipeline, Ticks: spec.Ticks})
	if err != nil {
		t.Fatal(err)
	}
	bare.Net.SetFaultInjector(nil)
	bare.Step(spec.Ticks)

	if d := Diff(mustObserve(t, withInjector.Map), mustObserve(t, bare.Map)); len(d) > 0 {
		t.Fatalf("zero-value chaos layer changed the run: %v", d)
	}
}
