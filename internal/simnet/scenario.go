package simnet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ErrScenario is wrapped by every scenario-decoding error.
var ErrScenario = errors.New("simnet: bad scenario")

// scenarioJSON mirrors AdversaryConfig with stable wire names. Durations are
// strings in Go duration syntax ("6h", "30m").
type scenarioJSON struct {
	Seed              uint64  `json:"seed,omitempty"`
	HoneypotFarms     int     `json:"honeypot_farms,omitempty"`
	FarmDensity       float64 `json:"farm_density,omitempty"`
	TarpitRate        float64 `json:"tarpit_rate,omitempty"`
	TarpitDripRate    float64 `json:"tarpit_drip_rate,omitempty"`
	DetectorRate      float64 `json:"detector_rate,omitempty"`
	DetectorThreshold int     `json:"detector_threshold,omitempty"`
	DetectorBaseBlock string  `json:"detector_base_block,omitempty"`
	DetectorMaxBlock  string  `json:"detector_max_block,omitempty"`
	BannerChurnRate   float64 `json:"banner_churn_rate,omitempty"`
	BannerChurnPeriod string  `json:"banner_churn_period,omitempty"`
}

// ParseScenario decodes a hostile-scenario description into an
// AdversaryConfig. Two syntaxes are accepted:
//
//   - JSON: {"honeypot_farms":2,"tarpit_rate":0.1,"detector_base_block":"6h"}
//   - compact key=value pairs: honeypot_farms=2,tarpit_rate=0.1,detector_base_block=6h
//
// Field names match the compact keys above. Rates must lie in [0,1]; counts
// and durations must be non-negative. Decoding never panics; every error
// wraps ErrScenario.
func ParseScenario(s string) (AdversaryConfig, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return AdversaryConfig{}, nil
	}
	if strings.HasPrefix(s, "{") {
		return parseScenarioJSON(s)
	}
	return parseScenarioCompact(s)
}

func parseScenarioJSON(s string) (AdversaryConfig, error) {
	dec := json.NewDecoder(strings.NewReader(s))
	dec.DisallowUnknownFields()
	var sj scenarioJSON
	if err := dec.Decode(&sj); err != nil {
		return AdversaryConfig{}, fmt.Errorf("%w: %v", ErrScenario, err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); !errors.Is(err, io.EOF) {
		return AdversaryConfig{}, fmt.Errorf("%w: trailing data after JSON object", ErrScenario)
	}
	a := AdversaryConfig{
		Seed:              sj.Seed,
		HoneypotFarms:     sj.HoneypotFarms,
		FarmDensity:       sj.FarmDensity,
		TarpitRate:        sj.TarpitRate,
		TarpitDripRate:    sj.TarpitDripRate,
		DetectorRate:      sj.DetectorRate,
		DetectorThreshold: sj.DetectorThreshold,
		BannerChurnRate:   sj.BannerChurnRate,
	}
	var err error
	if a.DetectorBaseBlock, err = scenarioDuration(sj.DetectorBaseBlock); err != nil {
		return AdversaryConfig{}, fmt.Errorf("%w: detector_base_block: %v", ErrScenario, err)
	}
	if a.DetectorMaxBlock, err = scenarioDuration(sj.DetectorMaxBlock); err != nil {
		return AdversaryConfig{}, fmt.Errorf("%w: detector_max_block: %v", ErrScenario, err)
	}
	if a.BannerChurnPeriod, err = scenarioDuration(sj.BannerChurnPeriod); err != nil {
		return AdversaryConfig{}, fmt.Errorf("%w: banner_churn_period: %v", ErrScenario, err)
	}
	return a, validateScenario(a)
}

func parseScenarioCompact(s string) (AdversaryConfig, error) {
	var a AdversaryConfig
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		key, val, ok := strings.Cut(pair, "=")
		if !ok {
			return AdversaryConfig{}, fmt.Errorf("%w: %q is not key=value", ErrScenario, pair)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			a.Seed, err = strconv.ParseUint(val, 0, 64)
		case "honeypot_farms":
			a.HoneypotFarms, err = scenarioInt(val)
		case "farm_density":
			a.FarmDensity, err = scenarioRate(val)
		case "tarpit_rate":
			a.TarpitRate, err = scenarioRate(val)
		case "tarpit_drip_rate":
			a.TarpitDripRate, err = scenarioRate(val)
		case "detector_rate":
			a.DetectorRate, err = scenarioRate(val)
		case "detector_threshold":
			a.DetectorThreshold, err = scenarioInt(val)
		case "detector_base_block":
			a.DetectorBaseBlock, err = scenarioDuration(val)
		case "detector_max_block":
			a.DetectorMaxBlock, err = scenarioDuration(val)
		case "banner_churn_rate":
			a.BannerChurnRate, err = scenarioRate(val)
		case "banner_churn_period":
			a.BannerChurnPeriod, err = scenarioDuration(val)
		default:
			return AdversaryConfig{}, fmt.Errorf("%w: unknown key %q", ErrScenario, key)
		}
		if err != nil {
			return AdversaryConfig{}, fmt.Errorf("%w: %s: %v", ErrScenario, key, err)
		}
	}
	return a, validateScenario(a)
}

func scenarioInt(val string) (int, error) {
	v, err := strconv.Atoi(val)
	if err != nil {
		return 0, err
	}
	if v < 0 {
		return 0, fmt.Errorf("must be non-negative, got %d", v)
	}
	return v, nil
}

func scenarioRate(val string) (float64, error) {
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || v < 0 || v > 1 {
		return 0, fmt.Errorf("must be in [0,1], got %v", v)
	}
	return v, nil
}

func scenarioDuration(val string) (time.Duration, error) {
	if val == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(val)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("must be non-negative, got %v", d)
	}
	return d, nil
}

func validateScenario(a AdversaryConfig) error {
	check := func(name string, v float64) error {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("%w: %s must be in [0,1], got %v", ErrScenario, name, v)
		}
		return nil
	}
	for name, v := range map[string]float64{
		"farm_density":      a.FarmDensity,
		"tarpit_rate":       a.TarpitRate,
		"tarpit_drip_rate":  a.TarpitDripRate,
		"detector_rate":     a.DetectorRate,
		"banner_churn_rate": a.BannerChurnRate,
	} {
		if err := check(name, v); err != nil {
			return err
		}
	}
	if a.HoneypotFarms < 0 || a.DetectorThreshold < 0 {
		return fmt.Errorf("%w: counts must be non-negative", ErrScenario)
	}
	if a.DetectorBaseBlock < 0 || a.DetectorMaxBlock < 0 || a.BannerChurnPeriod < 0 {
		return fmt.Errorf("%w: durations must be non-negative", ErrScenario)
	}
	return nil
}

// EncodeScenario renders the config in the canonical compact form.
// ParseScenario(EncodeScenario(a)) == a for any valid config.
func (a AdversaryConfig) EncodeScenario() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if a.Seed != 0 {
		add("seed", strconv.FormatUint(a.Seed, 10))
	}
	if a.HoneypotFarms != 0 {
		add("honeypot_farms", strconv.Itoa(a.HoneypotFarms))
	}
	if a.FarmDensity != 0 {
		add("farm_density", strconv.FormatFloat(a.FarmDensity, 'g', -1, 64))
	}
	if a.TarpitRate != 0 {
		add("tarpit_rate", strconv.FormatFloat(a.TarpitRate, 'g', -1, 64))
	}
	if a.TarpitDripRate != 0 {
		add("tarpit_drip_rate", strconv.FormatFloat(a.TarpitDripRate, 'g', -1, 64))
	}
	if a.DetectorRate != 0 {
		add("detector_rate", strconv.FormatFloat(a.DetectorRate, 'g', -1, 64))
	}
	if a.DetectorThreshold != 0 {
		add("detector_threshold", strconv.Itoa(a.DetectorThreshold))
	}
	if a.DetectorBaseBlock != 0 {
		add("detector_base_block", a.DetectorBaseBlock.String())
	}
	if a.DetectorMaxBlock != 0 {
		add("detector_max_block", a.DetectorMaxBlock.String())
	}
	if a.BannerChurnRate != 0 {
		add("banner_churn_rate", strconv.FormatFloat(a.BannerChurnRate, 'g', -1, 64))
	}
	if a.BannerChurnPeriod != 0 {
		add("banner_churn_period", a.BannerChurnPeriod.String())
	}
	return strings.Join(parts, ",")
}

// Scenarios returns the named presets of the adversarial pack. Each is one
// hostile dimension in isolation plus the full mixed scenario; combined with
// a seed they reproduce a complete hostile schedule.
func Scenarios() map[string]AdversaryConfig {
	return map[string]AdversaryConfig{
		"honeyfarm": {HoneypotFarms: 2},
		"tarpit":    {TarpitRate: 0.15, TarpitDripRate: 0.5},
		"detector":  {DetectorRate: 0.35, DetectorThreshold: 60, DetectorBaseBlock: 6 * time.Hour},
		"churn":     {BannerChurnRate: 0.25, BannerChurnPeriod: 12 * time.Hour},
		"full": {
			HoneypotFarms: 2, TarpitRate: 0.10, TarpitDripRate: 0.5,
			DetectorRate: 0.35, DetectorThreshold: 60, DetectorBaseBlock: 6 * time.Hour,
			BannerChurnRate: 0.25, BannerChurnPeriod: 12 * time.Hour,
		},
	}
}

// ScenarioNames lists the presets in sorted order.
func ScenarioNames() []string {
	names := make([]string, 0, len(Scenarios()))
	for n := range Scenarios() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
