package censysmap

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"censysmap/internal/core"
	"censysmap/internal/discovery"
	"censysmap/internal/interro"
	"censysmap/internal/simnet"
)

// knobs is every value a NewSystem caller can set, one settable leaf per
// line, reached through the pipeline config and its two policy structs.
// Adding or removing a knob is a one-line diff here.
var knobs = []string{
	"Universe",
	"Seed",
	"HostDensity",
	"Pipeline.SourceIPs",
	"Pipeline.Tick",
	"Pipeline.BackgroundPortsPerIPPerDay",
	"Pipeline.PredictBudgetPerTick",
	"Pipeline.SeedScanFraction",
	"Pipeline.CloudBlocks",
	"Pipeline.PseudoServiceThreshold",
	"Pipeline.Excluded",
	"Pipeline.DisablePrediction",
	"Pipeline.EvictAfter",
	"Pipeline.SnapshotEvery",
	"Pipeline.Shards",
	"Pipeline.InterroWorkers",
	"Pipeline.InterroBudget.Handshake",
	"Pipeline.InterroBudget.Total",
	"Pipeline.ScanBackoff.StreakThreshold",
	"Pipeline.ScanBackoff.RotateAfter",
	"Pipeline.HoneypotUniformityThreshold",
	"Pipeline.Telemetry",
	"Pipeline.TraceSample",
	"Network",
	"Scenario",
	"DisableTelemetry",
}

func TestKnobSurface(t *testing.T) {
	nested := map[reflect.Type]bool{
		reflect.TypeFor[core.Config]():             true,
		reflect.TypeFor[interro.Budget]():          true,
		reflect.TypeFor[discovery.BackoffPolicy](): true,
	}
	var got []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for _, f := range reflect.VisibleFields(typ) {
			ft := f.Type
			if ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			if nested[ft] {
				walk(prefix+f.Name+".", ft)
			} else {
				got = append(got, prefix+f.Name)
			}
		}
	}
	walk("", reflect.TypeFor[Options]())
	if !slices.Equal(got, knobs) {
		t.Fatalf("knob surface changed (%d knobs, was %d); update knobs:\n%s",
			len(got), len(knobs), strings.Join(got, "\n"))
	}
}

// scenarioKeys is the hostile-network vocabulary: every key of
// simnet.ParseScenario. Adding or removing a network
// knob is a one-line diff here.
var scenarioKeys = []string{
	"seed",
	"honeypot_farms",
	"farm_density",
	"tarpit_rate",
	"tarpit_drip_rate",
	"detector_rate",
	"detector_threshold",
	"detector_base_block",
	"detector_max_block",
	"banner_churn_rate",
	"banner_churn_period",
	"fault_loss",
	"fault_burst_rate",
	"fault_burst_loss",
	"fault_storm_rate",
	"fault_block_rate",
	"fault_timeout_rate",
}

// TestScenarioVocabulary pins the scenario codec's keys: each listed key
// parses and sets exactly one AdversaryConfig field, no two keys set the same
// field, and every field has a key — so a field the codec cannot name fails
// here too.
func TestScenarioVocabulary(t *testing.T) {
	fields := reflect.TypeFor[simnet.AdversaryConfig]().NumField()
	keyOf := make(map[int]string)
	for _, key := range scenarioKeys {
		adv, err := simnet.ParseScenario(key + "=1")
		if err != nil {
			adv, err = simnet.ParseScenario(key + "=1h") // a duration
		}
		if err != nil {
			t.Fatalf("key %q no longer parses: %v", key, err)
		}
		v := reflect.ValueOf(adv)
		var set []int
		for i := range fields {
			if !v.Field(i).IsZero() {
				set = append(set, i)
			}
		}
		if len(set) != 1 {
			t.Fatalf("key %q sets fields %v, want exactly one", key, set)
		}
		if other, dup := keyOf[set[0]]; dup {
			t.Fatalf("keys %q and %q set the same field", other, key)
		}
		keyOf[set[0]] = key
	}
	if len(keyOf) != fields {
		t.Fatalf("scenario vocabulary changed: %d keys for %d fields; update scenarioKeys", len(keyOf), fields)
	}
	if _, err := simnet.ParseScenario("no_such_key=1"); !errors.Is(err, simnet.ErrScenario) {
		t.Fatalf("unknown key accepted: %v", err)
	}
}

// TestSuppliedPipelineReachesTheMap: a supplied Pipeline is used as given —
// with DisablePrediction set there is no seed scan — and nil means the
// defaults, which run one.
func TestSuppliedPipelineReachesTheMap(t *testing.T) {
	noPredict := core.DefaultConfig()
	noPredict.DisablePrediction = true
	for _, c := range []struct {
		pipeline *core.Config
		seeded   bool
	}{{nil, true}, {&noPredict, false}} {
		sys, err := NewSystem(Options{
			Universe: netip.MustParsePrefix("10.0.0.0/23"),
			Seed:     3,
			Pipeline: c.pipeline,
		})
		if err != nil {
			t.Fatal(err)
		}
		if spent := sys.Map().Ledger().ClassTotals(discovery.ClassSeed).Spent; (spent > 0) != c.seeded {
			t.Errorf("DisablePrediction=%v: seed class spent %d", c.pipeline != nil, spent)
		}
	}
}

// smallSystem builds a fast system for facade tests.
func smallSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(Options{
		Universe: netip.MustParsePrefix("10.0.0.0/22"),
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSystemEndToEnd(t *testing.T) {
	sys := smallSystem(t)
	sys.Run(26 * time.Hour)

	services := sys.Services()
	if len(services) == 0 {
		t.Fatal("no services mapped")
	}

	// Search.
	n, err := sys.Count(`services.protocol: HTTP`)
	if err != nil || n == 0 {
		t.Fatalf("Count = %d, err=%v", n, err)
	}

	// Host lookup.
	h, ok := sys.Host(services[0].Addr)
	if !ok || len(h.ActiveServices()) == 0 {
		t.Fatalf("Host lookup failed for %v", services[0].Addr)
	}

	// History.
	if len(sys.History(services[0].Addr)) == 0 {
		t.Fatal("no history")
	}

	// Time travel: state as of an hour ago exists.
	if _, ok := sys.HostAt(services[0].Addr, sys.Now().Add(-time.Hour)); !ok {
		// The host may genuinely not have existed an hour in; current must.
		if _, ok := sys.HostAt(services[0].Addr, sys.Now()); !ok {
			t.Fatal("HostAt(now) failed")
		}
	}
}

func TestSystemRESTAPI(t *testing.T) {
	sys := smallSystem(t)
	sys.Run(26 * time.Hour)
	services := sys.Services()
	if len(services) == 0 {
		t.Fatal("no services")
	}
	srv := httptest.NewServer(sys.APIHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v2/hosts/" + services[0].Addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var h Host
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.IP != services[0].Addr {
		t.Fatalf("host = %v", h.IP)
	}
}

func TestSystemDeterministic(t *testing.T) {
	build := func() int {
		sys, err := NewSystem(Options{
			Universe: netip.MustParsePrefix("10.0.0.0/23"),
			Seed:     3,
		})
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(24 * time.Hour)
		return len(sys.Services())
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("non-deterministic: %d vs %d services", a, b)
	}
}

func TestDefaultUniverse(t *testing.T) {
	sys, err := NewSystem(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Internet().Hosts() == 0 {
		t.Fatal("empty default universe")
	}
	if !sys.Now().Equal(sys.Clock().Now()) {
		t.Fatal("clock mismatch")
	}
}

func TestSystemScenarioOption(t *testing.T) {
	// A preset name turns on the hostile overlay and the countermeasures.
	sys, err := NewSystem(Options{
		Universe: netip.MustParsePrefix("10.0.0.0/22"),
		Seed:     7,
		Scenario: "full",
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Internet().AdversaryStats()
	if st.Farms == 0 || st.TarpitHosts == 0 || st.ChurnHosts == 0 {
		t.Fatalf("scenario \"full\" built a benign universe: %+v", st)
	}
	sys.Run(6 * time.Hour)
	if sys.Map().InterroDeadlineStats().VirtualMillis == 0 {
		t.Fatal("deadline budgets not defaulted on under a hostile scenario")
	}

	// A compact scenario string works too.
	if _, err := NewSystem(Options{
		Universe: netip.MustParsePrefix("10.0.0.0/22"),
		Scenario: "honeypot_farms=1,banner_churn_rate=0.2",
	}); err != nil {
		t.Fatal(err)
	}

	// A fault preset drops probes on the path and leaves the substrate benign.
	faulty, err := NewSystem(Options{
		Universe: netip.MustParsePrefix("10.0.0.0/22"),
		Scenario: "severe,seed=3",
	})
	if err != nil {
		t.Fatal(err)
	}
	lost, _ := metric(faulty.MetricsSnapshot(), "censys_simnet_drops_total",
		map[string]string{"cause": simnet.CauseFaultLoss.String()})
	if lost.Value == 0 {
		t.Fatal("scenario \"severe\" injected no faults")
	}
	if st := faulty.Internet().AdversaryStats(); st.Farms != 0 || st.TarpitHosts != 0 || st.ChurnHosts != 0 {
		t.Fatalf("scenario \"severe\" built a hostile universe: %+v", st)
	}

	// A bad scenario surfaces the parse error instead of a benign run.
	if _, err := NewSystem(Options{
		Universe: netip.MustParsePrefix("10.0.0.0/22"),
		Scenario: "tarpit_rate=3",
	}); err == nil {
		t.Fatal("bad scenario accepted")
	}
}
