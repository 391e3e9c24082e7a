package discovery

import (
	"encoding/json"
	"net/netip"
	"testing"
	"time"

	"censysmap/internal/cyclic"
	"censysmap/internal/entity"
	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
)

func TestLedgerGrantSplitsTickBudget(t *testing.T) {
	l := NewLedger()
	priority := l.Register("priority", 10)
	predict := l.Register(ClassPredict, 4)

	l.BeginTick()
	if g := l.Grant(priority); g != 10 {
		t.Fatalf("priority grant = %d, want 10", g)
	}
	l.Account(priority, 10, 0)
	if g := l.Grant(priority); g != 0 {
		t.Fatalf("priority grant after full spend = %d, want 0", g)
	}
	// Predict's own allocation survives the other class spending its share.
	if g := l.Grant(predict); g != 4 {
		t.Fatalf("predict grant = %d, want 4", g)
	}
	l.Account(predict, 1, 0)
	if g := l.Grant(predict); g != 3 {
		t.Fatalf("predict grant after one spend = %d, want 3", g)
	}
	// Next tick resets per-tick spend but keeps cumulative totals.
	l.BeginTick()
	if g := l.Grant(priority); g != 10 {
		t.Fatalf("priority grant next tick = %d, want 10", g)
	}
	if got := l.ClassTotals("priority").Spent; got != 10 {
		t.Fatalf("cumulative priority spend = %d, want 10", got)
	}
}

func TestLedgerSharedCapGatesOverspend(t *testing.T) {
	l := NewLedger()
	a := l.Register("a", 5)
	b := l.Register("b", 5)
	l.BeginTick()
	// A class that overshoots its allocation eats into the shared total,
	// shrinking everyone else's grant.
	l.Account(a, 8, 0)
	if g := l.Grant(b); g != 2 {
		t.Fatalf("b grant with shared total nearly spent = %d, want 2", g)
	}
	l.Account(b, 2, 0)
	if g := l.Grant(b); g != 0 {
		t.Fatalf("b grant at shared cap = %d, want 0", g)
	}
	if c := l.Class("unregistered"); c != NoClass || l.Grant(c) != 0 {
		t.Fatalf("unregistered class: handle %d, granted %d probes", c, l.Grant(c))
	}
	if l.Class("b") != b || l.Register("b", 5) != b {
		t.Fatal("a registered class's handle is not stable")
	}
	// An unknown handle accounts nothing.
	l.Account(NoClass, 3, 1)
	if got := l.TotalSpent(); got != 10 {
		t.Fatalf("total spent = %d after accounting to NoClass, want 10", got)
	}
}

func TestLedgerAccountingAndEfficiency(t *testing.T) {
	l := NewLedger()
	seed := l.Register(ClassSeed, 0)
	predict := l.Register(ClassPredict, 10)
	l.BeginTick()
	l.Account(predict, 4, 3)
	// Seed has no per-tick allocation but still accounts its spend.
	l.Account(seed, 1, 0)

	ct := l.ClassTotals(ClassPredict)
	if ct.Spent != 4 || ct.Confirmed != 3 {
		t.Fatalf("predict totals = %+v", ct)
	}
	if eff := ct.Efficiency(); eff != 0.75 {
		t.Fatalf("predict efficiency = %v, want 0.75", eff)
	}
	if got := l.TotalSpent(); got != 5 {
		t.Fatalf("total spent = %d, want 5", got)
	}
	if eff := l.ClassTotals("nope").Efficiency(); eff != 0 {
		t.Fatalf("empty class efficiency = %v, want 0", eff)
	}
}

func TestLedgerStateRoundTrip(t *testing.T) {
	l := NewLedger()
	zz := l.Register("zz", 3)
	aa := l.Register("aa", 3)
	l.BeginTick()
	l.Account(zz, 2, 1)
	l.Account(aa, 1, 0)

	st := l.State()
	// Serialized totals are sorted by class for determinism.
	if len(st.Classes) != 2 || st.Classes[0].Class != "aa" || st.Classes[1].Class != "zz" {
		t.Fatalf("state classes not sorted: %+v", st.Classes)
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded LedgerState
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}

	fresh := NewLedger()
	fresh.Register("zz", 3)
	fresh.Register("aa", 3)
	fresh.Restore(decoded)
	if got := fresh.ClassTotals("zz"); got.Spent != 2 || got.Confirmed != 1 {
		t.Fatalf("restored zz totals = %+v", got)
	}
	// Restore clears the tick window: full grants again.
	fresh.BeginTick()
	if g := fresh.Grant(fresh.Class("aa")); g != 3 {
		t.Fatalf("restored aa grant = %d, want 3", g)
	}
	ba, _ := json.Marshal(fresh.State())
	if string(ba) != string(blob) {
		t.Fatalf("re-serialized state differs:\n%s\n%s", ba, blob)
	}
}

// TestLedgerBatchEqualsPerProbe runs one scripted schedule twice — each
// class flushing its loop in one Account call, and one call per probe the way
// the ledger was driven before it took batches — and holds both to the
// numbers the per-probe ledger produced for this script at the commit before
// batching (Spend and Confirm per probe, string-keyed maps): every Grant as
// each class asks, the totals, and the checkpoint bytes. Tick 2 and 3 spend
// on the seed class mid-tick, so the predict carve-out is capped by what is
// left of the shared total (25) rather than by its own allocation of 4.
func TestLedgerBatchEqualsPerProbe(t *testing.T) {
	type step struct {
		class            string
		grant            int // what Grant must answer before the class spends
		spent, confirmed int
	}
	ticks := [][]step{
		{{"priority", 10, 10, 3}, {"cloud", 5, 5, 1}, {"background65k", 6, 6, 0}, {ClassPredict, 4, 4, 2}},
		{{"priority", 10, 10, 0}, {"cloud", 5, 5, 5}, {ClassSeed, 0, 5, 1}, {"background65k", 5, 3, 2}, {ClassPredict, 2, 2, 1}},
		{{"priority", 10, 7, 1}, {"cloud", 5, 0, 0}, {ClassSeed, 0, 9, 0}, {"background65k", 6, 6, 6}, {"nobody", 0, 0, 0}, {ClassPredict, 3, 3, 3}},
	}
	const wantState = `{"classes":[{"class":"background65k","spent":15,"confirmed":8},` +
		`{"class":"cloud","spent":10,"confirmed":6},{"class":"predict","spent":9,"confirmed":6},` +
		`{"class":"priority","spent":27,"confirmed":4},{"class":"seed","spent":14,"confirmed":1}]}`
	const wantTotal = 75

	for _, mode := range []string{"batch", "per-probe"} {
		l := NewLedger()
		l.Register("priority", 10)
		l.Register("cloud", 5)
		l.Register("background65k", 6)
		l.Register(ClassSeed, 0)
		l.Register(ClassPredict, 4)
		for i, tick := range ticks {
			l.BeginTick()
			for _, s := range tick {
				c := l.Class(s.class)
				if g := l.Grant(c); g != s.grant {
					t.Fatalf("%s, tick %d: %s granted %d, want %d", mode, i+1, s.class, g, s.grant)
				}
				if mode == "batch" {
					l.Account(c, s.spent, s.confirmed)
					continue
				}
				for n := 0; n < s.spent; n++ {
					l.Account(c, 1, 0)
				}
				for n := 0; n < s.confirmed; n++ {
					l.Account(c, 0, 1)
				}
			}
		}
		if got := l.TotalSpent(); got != wantTotal {
			t.Fatalf("%s: total spent = %d, want %d", mode, got, wantTotal)
		}
		var sum uint64
		for _, ct := range l.Totals() {
			sum += ct.Spent
		}
		if sum != wantTotal {
			t.Fatalf("%s: class totals sum to %d, want %d", mode, sum, wantTotal)
		}
		blob, err := json.Marshal(l.State())
		if err != nil {
			t.Fatal(err)
		}
		if string(blob) != wantState {
			t.Fatalf("%s: state\n got %s\nwant %s", mode, blob, wantState)
		}
	}
}

// TestEngineLedgerCountsEveryTarget drives the engine itself: two classes on
// TCP-only ports (so one target is one probe), one of them registered
// below its ProbesPerTick so the grant is what stops it, and an excluded /24
// whose draws use up budget without being probed. Class spend must sum to
// the engine's own probe count and confirmations to its open responses, and
// the totals are the ones the per-probe ledger recorded for this run at the
// commit before accounting went per batch.
func TestEngineLedgerCountsEveryTarget(t *testing.T) {
	clk := simclock.New()
	cfg := quietConfig()
	net := simnet.New(cfg, clk)
	class := func(name string, ports []uint16, perTick int) ClassConfig {
		space, err := cyclic.NewPrefixSpace(cfg.Prefix, ports)
		if err != nil {
			t.Fatal(err)
		}
		return ClassConfig{Name: name, Method: entity.DetectPriorityScan, Space: space,
			ProbesPerTick: perTick, Restart: true}
	}
	classes := []ClassConfig{class("web", []uint16{80, 443, 22}, 700), class("tail", []uint16{8080, 3306}, 400)}
	l := testLedger(classes)
	l.Register("tail", 150) // below its ProbesPerTick: the grant stops it
	e, err := New(Config{
		Scanner: censysLike(), PoPs: DefaultPoPs(), Seed: 7, Ledger: l,
		Classes:  classes,
		Excluded: []netip.Prefix{netip.MustParsePrefix("10.0.1.0/24")},
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range e.classes {
		for _, p := range []uint16{80, 443, 22, 8080, 3306} {
			if e.udpProbe(p) != nil {
				t.Fatalf("port %d carries a UDP probe; the test needs one probe per target", p)
			}
		}
		if cs.ledger == NoClass {
			t.Fatalf("class %q has no ledger handle", cs.cfg.Name)
		}
	}
	for i := 0; i < 6; i++ {
		e.Tick(clk.Now(), func(Candidate) {})
		clk.Advance(time.Hour)
	}
	st := e.Stats()
	if st.Excluded == 0 {
		t.Fatal("no draw fell in the excluded prefix")
	}
	var spent, confirmed uint64
	for _, ct := range l.Totals() {
		spent, confirmed = spent+ct.Spent, confirmed+ct.Confirmed
	}
	if spent != st.ProbesSent || spent != l.TotalSpent() || confirmed != st.OpenResponses {
		t.Fatalf("ledger spent %d (TotalSpent %d) confirmed %d; engine sent %d probes, %d open",
			spent, l.TotalSpent(), confirmed, st.ProbesSent, st.OpenResponses)
	}
	const want = `{"classes":[{"class":"tail","spent":662,"confirmed":1},{"class":"web","spent":3153,"confirmed":18}]}`
	blob, err := json.Marshal(l.State())
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != want {
		t.Fatalf("ledger state\n got %s\nwant %s", blob, want)
	}
}
