package chaos

import (
	"encoding/json"
	"net/netip"
	"testing"
)

// predictiveSpec is the Lab spec with the predictive scheduler turned up:
// a larger predict budget, a bigger training seed scan, and an excluded /25
// inside the universe so the exclusion invariant is under test while faults
// fly. Prediction state (model, topology cursors, cooldown book, budget
// ledger) all ride the checkpoint, so the usual differential contract —
// crash anywhere, resume, end bit-identical — must hold unchanged.
func predictiveSpec(seed uint64, ticks int) RunSpec {
	spec := Lab(seed, preset("mild", seed+1), ticks)
	spec.Pipeline.PredictBudgetPerTick = 600
	spec.Pipeline.SeedScanFraction = 0.05
	spec.Pipeline.Excluded = []netip.Prefix{netip.MustParsePrefix("10.40.1.128/25")}
	return spec
}

// TestPredictiveSchedulingDeterministic: two complete runs of the same
// predictive spec are bit-identical — externally (Observation) and internally
// (marshaled Checkpoint, which carries the predictor model, topology tree,
// cooldown book, and budget ledger).
func TestPredictiveSchedulingDeterministic(t *testing.T) {
	runs := make([]*Run, 2)
	for i := range runs {
		runs[i] = mustComplete(t, predictiveSpec(131, 30))
		defer runs[i].Map.Stop()
	}
	if d := Diff(mustObserve(t, runs[0].Map), mustObserve(t, runs[1].Map)); len(d) != 0 {
		t.Fatalf("same predictive spec, divergent observations: %v", d)
	}
	blobs := make([]string, 2)
	for i, r := range runs {
		b, err := json.Marshal(r.Map.Checkpoint())
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = string(b)
	}
	if blobs[0] != blobs[1] {
		t.Fatal("same predictive spec, divergent checkpoints")
	}
	if runs[0].Map.Stats().PredictiveProbes == 0 {
		t.Fatal("predictive spec issued no predictive probes; spec too small")
	}
	pl := runs[0].Map.Ledger().ClassTotals("predict")
	if pl.Spent == 0 || pl.Confirmed == 0 {
		t.Fatalf("predict ledger did not move: %+v", pl)
	}
}

// TestCrashRecoveryPredictiveDifferential: with prediction driving part of
// the probe budget, a crash at an arbitrary tick followed by core.Resume
// still converges to the uninterrupted run — same external observation AND
// byte-identical checkpoint, i.e. the predictor model, prefix-tree cursors,
// cooldown book, and per-class budget ledger all survive the crash exactly.
func TestCrashRecoveryPredictiveDifferential(t *testing.T) {
	const seed, ticks = 977, 30
	straight := mustComplete(t, predictiveSpec(seed, ticks))
	defer straight.Map.Stop()
	want := mustObserve(t, straight.Map)
	wantCP, err := json.Marshal(straight.Map.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if straight.Map.Stats().PredictiveProbes == 0 {
		t.Fatal("reference run issued no predictive probes")
	}

	for _, crashTick := range []int{5, 13, 21} {
		crashTick := crashTick
		t.Run(map[int]string{5: "early", 13: "mid", 21: "late"}[crashTick], func(t *testing.T) {
			t.Parallel()
			r, err := CompleteWithCrash(predictiveSpec(seed, ticks), crashTick)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Map.Stop()
			if d := Diff(want, mustObserve(t, r.Map)); len(d) != 0 {
				t.Errorf("crash@%d: observation diverged: %v", crashTick, d)
			}
			gotCP, err := json.Marshal(r.Map.Checkpoint())
			if err != nil {
				t.Fatal(err)
			}
			if string(gotCP) != string(wantCP) {
				t.Errorf("crash@%d: checkpoint bytes diverged after resume", crashTick)
			}
		})
	}
}

// TestPredictiveExclusionUnderFaults: nothing inside the excluded /25 ever
// reaches the dataset, even with the predictive scheduler expanding dense
// /24s right next to it and chaos faults perturbing timing. (The probe-level
// form of this invariant — zero probes into the prefix, counted below every
// scheduler layer — is asserted by the eval harness's exclusion recorder.)
func TestPredictiveExclusionUnderFaults(t *testing.T) {
	spec := predictiveSpec(55, 30)
	excluded := spec.Pipeline.Excluded
	r, err := Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Map.Stop()
	r.Step(spec.Ticks)
	for _, rec := range r.Map.CurrentServices(true) {
		for _, p := range excluded {
			if p.Contains(rec.Addr) {
				t.Fatalf("excluded address %s in dataset", rec.Addr)
			}
		}
	}
	if r.Map.Stats().PredictiveProbes == 0 {
		t.Fatal("no predictive probes issued")
	}
}
