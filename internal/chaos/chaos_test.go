package chaos

import (
	"encoding/json"
	"testing"
	"time"

	"censysmap/internal/core"
	"censysmap/internal/simnet"
)

// faultCauses are the drop causes of the path's injected-fault layer.
var faultCauses = []simnet.Cause{simnet.CauseFaultBlock, simnet.CauseFaultStorm,
	simnet.CauseFaultBurst, simnet.CauseFaultTimeout, simnet.CauseFaultLoss}

// injected is how many of the path's drops the scenario's fault mix caused.
func injected(s simnet.PathStats) uint64 {
	var n uint64
	for _, c := range faultCauses {
		n += s[c]
	}
	return n
}

// preset is the named simnet scenario preset under seed.
func preset(name string, seed uint64) simnet.AdversaryConfig {
	a := simnet.Scenarios()[name]
	a.Seed = seed
	return a
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
	spec := Lab(7, preset("severe", 42), 24)
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

// TestFaultScheduleUnchanged pins the per-cause drops of four fault
// schedules to the counts they had when the fault mix was a separate
// injector type with its own seed, before it became scenario keys: the move
// kept every draw, so it kept every drop.
func TestFaultScheduleUnchanged(t *testing.T) {
	blocking := Lab(11, preset("mild", 99), 24)
	blocking.Net.BlockThreshold = 1
	blocking.Net.BlockDuration = 6 * time.Hour
	blocking.Pipeline.SourceIPs = 8
	for _, c := range []struct {
		name string
		spec RunSpec
		want simnet.PathStats
	}{
		{"severe 42", Lab(7, preset("severe", 42), 24), simnet.PathStats{
			simnet.CauseFaultStorm: 109, simnet.CauseFaultBurst: 46425,
			simnet.CauseFaultTimeout: 3, simnet.CauseFaultLoss: 3107}},
		{"severe 99", Lab(11, preset("severe", 99), 24), simnet.PathStats{
			simnet.CauseFaultBurst: 46646, simnet.CauseFaultTimeout: 7, simnet.CauseFaultLoss: 3358}},
		{"mild 99", Lab(11, preset("mild", 99), 24), simnet.PathStats{
			simnet.CauseFaultBurst: 279, simnet.CauseFaultTimeout: 7, simnet.CauseFaultLoss: 2202}},
		{"mild 99, rate blocks", blocking, simnet.PathStats{
			simnet.CauseRateBlock: 74457, simnet.CauseFaultLoss: 2}},
	} {
		r := mustComplete(t, c.spec)
		r.Map.Stop()
		if got := r.Net.PathStats(); got != c.want {
			t.Errorf("%s: drops %v, want %v", c.name, got, c.want)
		}
	}
}

// TestFaultKindsAllFire: every injector code path fires. The lab universe
// has only two /24s and the run spans two day-windows, so the blocking rate
// is cranked far above Severe's to get draws that actually land.
func TestFaultKindsAllFire(t *testing.T) {
	spec := Lab(7, simnet.AdversaryConfig{Seed: 42, FaultLoss: 0.05, FaultBurstRate: 0.2,
		FaultBurstLoss: 0.6, FaultStormRate: 0.1, FaultBlockRate: 0.4, FaultTimeoutRate: 0.1}, 24)
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
	faults := Lab(11, preset("severe", 99), 24)
	blocking := Lab(11, preset("mild", 99), 24)
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
	base := Lab(5, preset("mild", 5), 10)

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

// TestZeroFaultConfigMatchesBaseline: a seed with a zero fault mix must be an
// exact no-op — byte-identical to a run on a zero scenario.
func TestZeroFaultConfigMatchesBaseline(t *testing.T) {
	spec := Lab(13, simnet.AdversaryConfig{Seed: 13}, 12)
	withInjector := mustComplete(t, spec)
	if n := injected(withInjector.Net.PathStats()); n != 0 {
		t.Fatalf("zero config injected %d drops", n)
	}

	// Same spec, but no scenario at all.
	bareNet := *spec.Net
	bareNet.Adversary = simnet.AdversaryConfig{}
	bare, err := Start(RunSpec{Prefix: spec.Prefix, UniverseSeed: spec.UniverseSeed,
		Net: &bareNet, Pipeline: spec.Pipeline, Ticks: spec.Ticks})
	if err != nil {
		t.Fatal(err)
	}
	bare.Step(spec.Ticks)

	if d := Diff(mustObserve(t, withInjector.Map), mustObserve(t, bare.Map)); len(d) > 0 {
		t.Fatalf("zero-value chaos layer changed the run: %v", d)
	}
}
