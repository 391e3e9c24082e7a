package discovery

import (
	"encoding/json"
	"testing"
	"time"

	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
)

func detectorConfig() simnet.Config {
	cfg := quietConfig()
	cfg.Adversary = simnet.AdversaryConfig{
		Seed:              5,
		DetectorRate:      1.0, // every /24 watches for scanners
		DetectorThreshold: 30,
		DetectorBaseBlock: 12 * time.Hour,
	}
	return cfg
}

func adaptiveEngine(t *testing.T, net *simnet.Internet, policy BackoffPolicy) *Engine {
	t.Helper()
	classes := []ClassConfig{priorityClass(t, detectorConfig().Prefix, 4000)}
	e, err := New(Config{
		Scanner: censysLike(),
		PoPs:    DefaultPoPs(),
		Classes: classes,
		Seed:    7,
		Ledger:  testLedger(classes),
		Backoff: policy,
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

var testPolicy = BackoffPolicy{StreakThreshold: 20, RotateAfter: 3}

func TestBackoffEngagesUnderDetectors(t *testing.T) {
	clk := simclock.New()
	net := simnet.New(detectorConfig(), clk)
	e := adaptiveEngine(t, net, testPolicy)

	for i := 0; i < 40; i++ {
		e.Tick(clk.Now(), func(Candidate) {})
		clk.Advance(time.Hour)
	}
	st := e.Stats()
	if st.Backoffs == 0 {
		t.Fatal("detectors blocked the scanner but no backoff ever triggered")
	}
	if st.Deferred == 0 {
		t.Fatal("backoffs triggered but no probe was ever deferred")
	}
	if st.Rotations == 0 || e.Rotations() == 0 {
		t.Fatal("enough offenses accumulated but the scanner never rotated identity")
	}
	if e.ActiveBackoffs() == 0 {
		t.Fatal("no network currently backed off after sustained blocking")
	}
	// Detectors actually fired against the scanner (any identity); active
	// blocks may already have expired by now, but the event count is
	// cumulative.
	if net.DetectorBlockEvents("censys") == 0 {
		t.Fatal("no detector block ever fired against any censys identity")
	}
	// Rotation shows up at the network as fresh identities with their own
	// block history.
	if net.DetectorBlockEvents("censys+r") == 0 {
		t.Fatal("rotated identities never drew a detector block of their own")
	}
}

func TestBackoffDisabledLeavesStatsUntouched(t *testing.T) {
	clk := simclock.New()
	net := simnet.New(detectorConfig(), clk)
	e := adaptiveEngine(t, net, BackoffPolicy{})

	for i := 0; i < 10; i++ {
		e.Tick(clk.Now(), func(Candidate) {})
		clk.Advance(time.Hour)
	}
	st := e.Stats()
	if st.Deferred != 0 || st.Backoffs != 0 || st.Rotations != 0 {
		t.Fatalf("disabled policy produced adaptive stats: %+v", st)
	}
	// And the engine state carries no adaptive baggage.
	raw, err := json.Marshal(e.State())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"tick_no", "offenses", "rotations", "backoff"} {
		if _, ok := m[key]; ok {
			t.Fatalf("disabled policy serialized %q in state: %s", key, raw)
		}
	}
}

// A kill/resume mid-run must land on the exact same schedule: same stats,
// same deferred probes, same rotation point.
func TestBackoffStateSurvivesRestore(t *testing.T) {
	run := func(splitAt int) (Stats, string) {
		clk := simclock.New()
		net := simnet.New(detectorConfig(), clk)
		e := adaptiveEngine(t, net, testPolicy)
		for i := 0; i < 30; i++ {
			if i == splitAt {
				// Serialize through JSON like a real checkpoint does.
				raw, err := json.Marshal(e.State())
				if err != nil {
					t.Fatal(err)
				}
				var st State
				if err := json.Unmarshal(raw, &st); err != nil {
					t.Fatal(err)
				}
				e2 := adaptiveEngine(t, net, testPolicy)
				if err := e2.Restore(st); err != nil {
					t.Fatal(err)
				}
				e = e2
			}
			e.Tick(clk.Now(), func(Candidate) {})
			clk.Advance(time.Hour)
		}
		finalState, err := json.Marshal(e.State())
		if err != nil {
			t.Fatal(err)
		}
		return e.Stats(), string(finalState)
	}
	statsA, stateA := run(-1) // never restored
	statsB, stateB := run(13) // killed and resumed at tick 13
	if statsA != statsB {
		t.Fatalf("stats diverge across kill/resume:\n  %+v\n  %+v", statsA, statsB)
	}
	if stateA != stateB {
		t.Fatalf("state diverges across kill/resume:\n  %s\n  %s", stateA, stateB)
	}
}
