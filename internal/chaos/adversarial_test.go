package chaos

import (
	"encoding/json"
	"net/netip"
	"testing"
	"time"
)

// adversarialSpec is the Lab spec over a hostile substrate: a honeypot farm,
// tarpits (half stalling, half dripping), scan detectors with escalating
// blocks, and banner-churn hosts — with the pipeline's countermeasures all
// enabled (deadline budgets, adaptive backoff + rotation, honeypot
// uniformity filter). One seed names one exact hostile schedule; the usual
// differential contract must hold unchanged.
func adversarialSpec(seed uint64, ticks int) RunSpec {
	scenario := preset("mild", seed+7)
	scenario.HoneypotFarms = 1
	scenario.TarpitRate = 0.10
	scenario.TarpitDripRate = 0.5
	scenario.DetectorRate = 0.5
	scenario.DetectorThreshold = 40
	scenario.DetectorBaseBlock = 6 * time.Hour
	scenario.BannerChurnRate = 0.2
	scenario.BannerChurnPeriod = 12 * time.Hour
	spec := Lab(seed, scenario, ticks)
	prefix := netip.MustParsePrefix("10.40.0.0/22")
	spec.Prefix = prefix
	spec.Net.Prefix = prefix
	spec.Pipeline.ArmCountermeasures()
	return spec
}

// TestAdversarialSameSeedReproducible: one chaos seed names one hostile
// schedule. Two complete runs agree externally (Observation) and internally
// (checkpoint bytes), and every adversarial mechanism demonstrably engaged.
func TestAdversarialSameSeedReproducible(t *testing.T) {
	runs := make([]*Run, 2)
	for i := range runs {
		runs[i] = mustComplete(t, adversarialSpec(401, 30))
		defer runs[i].Map.Stop()
	}
	if d := Diff(mustObserve(t, runs[0].Map), mustObserve(t, runs[1].Map)); len(d) != 0 {
		t.Fatalf("same adversarial spec, divergent observations: %v", d)
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
		t.Fatal("same adversarial spec, divergent checkpoints")
	}

	// The hostile substrate actually bit, and the defenses actually ran.
	m := runs[0].Map
	if m.Stats().HoneypotsFlagged == 0 {
		t.Error("no honeypot host was flagged")
	}
	if ds := m.InterroDeadlineStats(); ds.TotalExhausted == 0 {
		t.Error("no interrogation budget was exhausted against tarpits")
	}
	if st := m.DiscoveryStats(); st.Backoffs == 0 || st.Deferred == 0 {
		t.Errorf("adaptive backoff never engaged: %+v", st)
	}
	if runs[0].Net.DetectorBlockEvents("censysmap") == 0 {
		t.Error("scan detectors never fired a block against the scanner")
	}
}

// TestAdversarialLayoutInvariance: Shards × InterroWorkers must not change a
// single bit of the outcome, even with every adversarial mechanism firing —
// the honeypot fan-in, the budget accounting, and the backoff schedule are
// all layout-invariant by construction.
func TestAdversarialLayoutInvariance(t *testing.T) {
	layouts := [][2]int{{1, 1}, {8, 4}, {3, 2}}
	var ref Observation
	var refCP string
	for i, l := range layouts {
		spec := adversarialSpec(401, 24)
		spec.Pipeline.Shards = l[0]
		spec.Pipeline.InterroWorkers = l[1]
		r := mustComplete(t, spec)
		o := mustObserve(t, r.Map)
		cp, err := json.Marshal(r.Map.Checkpoint())
		if err != nil {
			t.Fatal(err)
		}
		r.Map.Stop()
		if i == 0 {
			ref, refCP = o, string(cp)
			if ref.Stats.HoneypotsFlagged == 0 {
				t.Fatal("reference run flagged no honeypots; spec too quiet")
			}
			// The pseudo-host check connects from the workers; a flag means
			// its connects are inside the bit-identity below.
			if r.Map.PseudoHosts() == 0 {
				t.Fatal("reference run flagged no pseudo host; spec too quiet")
			}
			continue
		}
		if d := Diff(ref, o); len(d) > 0 {
			t.Fatalf("layout %v changed the adversarial outcome: %v", l, d)
		}
		if string(cp) != refCP {
			t.Fatalf("layout %v changed the checkpoint bytes", l)
		}
	}
}

// TestAdversarialCrashDifferential: kill/resume at any tick of a hostile run
// converges to the uninterrupted run — the detector's escalation state lives
// in the (surviving) network, and the pipeline's countermeasure state
// (honeypot flags, uniformity accumulator, backoff clocks, rotation count)
// all ride the checkpoint.
func TestAdversarialCrashDifferential(t *testing.T) {
	const seed, ticks = 307, 30
	straight := mustComplete(t, adversarialSpec(seed, ticks))
	defer straight.Map.Stop()
	want := mustObserve(t, straight.Map)
	wantCP, err := json.Marshal(straight.Map.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.HoneypotsFlagged == 0 {
		t.Fatal("reference run flagged no honeypots; spec too quiet")
	}

	for _, crashTick := range []int{5, 13, 21} {
		crashTick := crashTick
		t.Run(map[int]string{5: "early", 13: "mid", 21: "late"}[crashTick], func(t *testing.T) {
			t.Parallel()
			r, err := CompleteWithCrash(adversarialSpec(seed, ticks), crashTick)
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
