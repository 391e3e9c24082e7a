package simnet

import (
	"errors"
	"testing"
	"time"
)

func TestParseScenarioCompact(t *testing.T) {
	got, err := ParseScenario("honeypot_farms=2, tarpit_rate=0.15, detector_rate=0.4, detector_threshold=60, detector_base_block=6h, banner_churn_rate=0.25, banner_churn_period=12h, seed=9")
	if err != nil {
		t.Fatal(err)
	}
	want := AdversaryConfig{
		Seed: 9, HoneypotFarms: 2, TarpitRate: 0.15,
		DetectorRate: 0.4, DetectorThreshold: 60, DetectorBaseBlock: 6 * time.Hour,
		BannerChurnRate: 0.25, BannerChurnPeriod: 12 * time.Hour,
	}
	if got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// TestPresetsByName: a preset name parses to its values, and pairs after it
// override them.
func TestPresetsByName(t *testing.T) {
	severe := AdversaryConfig{FaultLoss: 0.12, FaultBurstRate: 0.15, FaultBurstLoss: 0.7,
		FaultStormRate: 0.03, FaultBlockRate: 0.02, FaultTimeoutRate: 0.08}
	if got, err := ParseScenario("severe"); err != nil || got != severe {
		t.Fatalf("severe: %+v, %v", got, err)
	}
	severe.Seed, severe.FaultLoss = 42, 0.5
	if got, err := ParseScenario(" severe , seed=42, fault_loss=0.5"); err != nil || got != severe {
		t.Fatalf("severe with overrides: %+v, %v", got, err)
	}
	if _, err := ParseScenario("seed=42,severe"); !errors.Is(err, ErrScenario) {
		t.Fatalf("a preset after a pair: err = %v, want ErrScenario", err)
	}
}

func TestParseScenarioErrors(t *testing.T) {
	for _, bad := range []string{
		"tarpit_rate=1.5",         // out of range
		"tarpit_rate=abc",         // not a number
		"honeypot_farms=-1",       // negative
		"no_such_knob=1",          // unknown key
		"tarpit_rate",             // not key=value
		"detector_base_block=-5h", // negative duration
		"fault_burst_loss=-0.1",   // fault rates are rates too
		// JSON is not a scenario syntax.
		`{"no_such_knob":1}`,
		`{"tarpit_rate":2}`,
		`{"honeypot_farms":1} extra`,
		`{"honeypot_farms":"two"}`,
	} {
		if _, err := ParseScenario(bad); !errors.Is(err, ErrScenario) {
			t.Errorf("ParseScenario(%q): err = %v, want ErrScenario", bad, err)
		}
	}
}

func TestScenarioRoundTrip(t *testing.T) {
	for name, cfg := range Scenarios() {
		enc := cfg.EncodeScenario()
		back, err := ParseScenario(enc)
		if err != nil {
			t.Fatalf("%s: re-parse %q: %v", name, enc, err)
		}
		if back != cfg {
			t.Fatalf("%s: round trip %q: got %+v, want %+v", name, enc, back, cfg)
		}
	}
	if got, err := ParseScenario(""); err != nil || got != (AdversaryConfig{}) {
		t.Fatalf("empty scenario: %+v, %v", got, err)
	}
}

// FuzzScenarioDecode checks the untrusted-input properties of the scenario
// decoder: it never panics, and anything it accepts re-encodes to a
// canonical form that parses back to the identical config.
func FuzzScenarioDecode(f *testing.F) {
	f.Add("honeypot_farms=2,tarpit_rate=0.15")
	f.Add("seed=18446744073709551615,detector_base_block=6h")
	f.Add("severe,seed=42,banner_churn_period=12h")
	f.Add("tarpit_rate=0.9999999999,detector_threshold=2147483647")
	f.Add("")
	f.Add("detector_rate=NaN")
	f.Add("{")
	for _, name := range ScenarioNames() {
		cfg := Scenarios()[name]
		f.Add(cfg.EncodeScenario())
	}
	f.Fuzz(func(t *testing.T, s string) {
		cfg, err := ParseScenario(s)
		if err != nil {
			return
		}
		enc := cfg.EncodeScenario()
		back, err := ParseScenario(enc)
		if err != nil {
			t.Fatalf("re-parse of canonical %q failed: %v", enc, err)
		}
		if back != cfg {
			t.Fatalf("round trip mismatch: %+v vs %+v (via %q)", cfg, back, enc)
		}
	})
}
