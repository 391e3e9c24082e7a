package simnet

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"time"
)

// ErrScenario is wrapped by every scenario-decoding error.
var ErrScenario = errors.New("simnet: bad scenario")

// scenarioKeys is the scenario codec: one key per AdversaryConfig field, in
// canonical order. Parsing and range checks read it. A field's
// type sets its syntax and range: a seed is any unsigned integer, a count a
// non-negative integer, a rate a number in [0,1], a duration a non-negative
// Go duration ("6h", "30m").
var scenarioKeys = []struct {
	name  string
	field func(*AdversaryConfig) any
}{
	{"seed", func(a *AdversaryConfig) any { return &a.Seed }},
	{"honeypot_farms", func(a *AdversaryConfig) any { return &a.HoneypotFarms }},
	{"farm_density", func(a *AdversaryConfig) any { return &a.FarmDensity }},
	{"tarpit_rate", func(a *AdversaryConfig) any { return &a.TarpitRate }},
	{"tarpit_drip_rate", func(a *AdversaryConfig) any { return &a.TarpitDripRate }},
	{"detector_rate", func(a *AdversaryConfig) any { return &a.DetectorRate }},
	{"detector_threshold", func(a *AdversaryConfig) any { return &a.DetectorThreshold }},
	{"detector_base_block", func(a *AdversaryConfig) any { return &a.DetectorBaseBlock }},
	{"detector_max_block", func(a *AdversaryConfig) any { return &a.DetectorMaxBlock }},
	{"banner_churn_rate", func(a *AdversaryConfig) any { return &a.BannerChurnRate }},
	{"banner_churn_period", func(a *AdversaryConfig) any { return &a.BannerChurnPeriod }},
	{"fault_loss", func(a *AdversaryConfig) any { return &a.FaultLoss }},
	{"fault_burst_rate", func(a *AdversaryConfig) any { return &a.FaultBurstRate }},
	{"fault_burst_loss", func(a *AdversaryConfig) any { return &a.FaultBurstLoss }},
	{"fault_storm_rate", func(a *AdversaryConfig) any { return &a.FaultStormRate }},
	{"fault_block_rate", func(a *AdversaryConfig) any { return &a.FaultBlockRate }},
	{"fault_timeout_rate", func(a *AdversaryConfig) any { return &a.FaultTimeoutRate }},
}

// ParseScenario decodes a scenario: comma-separated key=value pairs such as
// honeypot_farms=2,tarpit_rate=0.1,detector_base_block=6h, optionally led by
// a preset name whose values the pairs then override ("severe,seed=42").
// Decoding never panics; every error wraps ErrScenario.
func ParseScenario(s string) (AdversaryConfig, error) {
	var a AdversaryConfig
	pairs := strings.Split(s, ",")
	if p, ok := scenarios[strings.TrimSpace(pairs[0])]; ok {
		a, pairs = p, pairs[1:]
	}
	for _, pair := range pairs {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		key, val, ok := strings.Cut(pair, "=")
		if !ok {
			return AdversaryConfig{}, fmt.Errorf("%w: %q is not key=value", ErrScenario, pair)
		}
		key = strings.TrimSpace(key)
		if err := a.set(key, strings.TrimSpace(val)); err != nil {
			return AdversaryConfig{}, fmt.Errorf("%w: %s: %v", ErrScenario, key, err)
		}
	}
	return a, nil
}

// set decodes val into the field named key, checking its range.
func (a *AdversaryConfig) set(key, val string) error {
	for _, k := range scenarioKeys {
		if k.name != key {
			continue
		}
		var err error
		switch p := k.field(a).(type) {
		case *uint64:
			*p, err = strconv.ParseUint(val, 0, 64)
		case *int:
			if *p, err = strconv.Atoi(val); err == nil && *p < 0 {
				err = fmt.Errorf("must be non-negative, got %d", *p)
			}
		case *float64:
			if *p, err = strconv.ParseFloat(val, 64); err == nil && !(*p >= 0 && *p <= 1) {
				err = fmt.Errorf("must be in [0,1], got %v", *p)
			}
		case *time.Duration:
			if *p, err = time.ParseDuration(val); err == nil && *p < 0 {
				err = fmt.Errorf("must be non-negative, got %v", *p)
			}
		}
		return err
	}
	return errors.New("unknown key")
}

// scenarios are the named presets: each hostile dimension in isolation, the
// full mixed substrate, and two fault mixes (mild, ~5% effective loss;
// severe, ~20% plus storms and blocking). Combined with a seed each names a
// complete hostile schedule.
var scenarios = map[string]AdversaryConfig{
	"honeyfarm": {HoneypotFarms: 2},
	"tarpit":    {TarpitRate: 0.15, TarpitDripRate: 0.5},
	"detector":  {DetectorRate: 0.35, DetectorThreshold: 60, DetectorBaseBlock: 6 * time.Hour},
	"churn":     {BannerChurnRate: 0.25, BannerChurnPeriod: 12 * time.Hour},
	"full": {
		HoneypotFarms: 2, TarpitRate: 0.10, TarpitDripRate: 0.5,
		DetectorRate: 0.35, DetectorThreshold: 60, DetectorBaseBlock: 6 * time.Hour,
		BannerChurnRate: 0.25, BannerChurnPeriod: 12 * time.Hour,
	},
	"mild": {FaultLoss: 0.03, FaultBurstRate: 0.05, FaultBurstLoss: 0.5, FaultTimeoutRate: 0.02},
	"severe": {FaultLoss: 0.12, FaultBurstRate: 0.15, FaultBurstLoss: 0.7,
		FaultStormRate: 0.03, FaultBlockRate: 0.02, FaultTimeoutRate: 0.08},
}

// ScenarioNames lists the presets in sorted order.
func ScenarioNames() []string { return slices.Sorted(maps.Keys(scenarios)) }
