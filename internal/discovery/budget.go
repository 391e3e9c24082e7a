package discovery

import (
	"sort"
	"sync"
)

// Ledger class names for probe classes that live outside the discovery
// engine but share its per-tick budget.
const (
	// ClassSeed accounts the one-time GPS seed scan (spent before the first
	// tick; it has no per-tick allocation).
	ClassSeed = "seed"
	// ClassPredict is the predictive engine's per-tick allocation. Core
	// carves it out of the background class, so predictions displace
	// exhaustive probes rather than adding to the footprint.
	ClassPredict = "predict"
)

// Class is a registered class's dense handle: its index into the ledger's
// counters, resolved once so the scan path never hashes a class name.
type Class int

// NoClass is the handle of a class the ledger does not know: it is granted
// nothing and accounts nothing.
const NoClass Class = -1

// Ledger is the explicit probe-budget ledger: every scan class — the
// discovery classes, the predictive engine, the seed scan — registers a
// per-tick allocation and accounts the probe targets it spends and the L4
// confirmations it gets back. The difference is the class's wasted probes,
// and confirmed/spent is its budget efficiency — the number the
// exhaustive-vs-predictive evaluation (make predict-diff) compares.
//
// Grants are how predictions compete with exhaustive scanning for a shared
// total: a class may spend at most its own allocation per tick AND at most
// what the shared per-tick total (the sum of all allocations) has left. The
// tick phases run in a fixed order, so grant arithmetic is deterministic.
//
// Accounting is per batch, not per probe: a class takes its Grant, runs its
// whole loop for the tick, then calls Account once with what it spent and
// got confirmed. Every Grant therefore still sees all spend that preceded
// it, because each class's loop ends before the next class asks.
//
// Units are probe targets (one discovery target may emit a TCP SYN plus a
// protocol UDP probe; it spends once), matching ClassConfig.ProbesPerTick.
//
// All methods lock: the scan path is serial, but telemetry collection may
// read totals concurrently with a live run.
type Ledger struct {
	mu    sync.Mutex
	index map[string]Class
	// Per-class columns, indexed by Class in registration order.
	names     []string
	alloc     []int
	tickSpent []int
	spent     []uint64
	confirmed []uint64
	totalCap  int
	tickTotal int
}

// NewLedger creates an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{index: make(map[string]Class)}
}

// Register adds a class with its per-tick allocation and returns its handle.
// Classes must be registered before the first tick; re-registering replaces
// the allocation and returns the same handle.
func (l *Ledger) Register(class string, perTick int) Class {
	l.mu.Lock()
	defer l.mu.Unlock()
	if c, ok := l.index[class]; ok {
		l.totalCap += perTick - l.alloc[c]
		l.alloc[c] = perTick
		return c
	}
	c := Class(len(l.names))
	l.index[class] = c
	l.names = append(l.names, class)
	l.alloc = append(l.alloc, perTick)
	l.tickSpent = append(l.tickSpent, 0)
	l.spent = append(l.spent, 0)
	l.confirmed = append(l.confirmed, 0)
	l.totalCap += perTick
	return c
}

// Class returns a registered class's handle, or NoClass.
func (l *Ledger) Class(class string) Class {
	l.mu.Lock()
	defer l.mu.Unlock()
	if c, ok := l.index[class]; ok {
		return c
	}
	return NoClass
}

// Classes returns the registered class names in registration order.
func (l *Ledger) Classes() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.names...)
}

// BeginTick resets the per-tick spend; cumulative totals carry on.
func (l *Ledger) BeginTick() {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.tickSpent)
	l.tickTotal = 0
}

func (l *Ledger) known(c Class) bool { return c >= 0 && int(c) < len(l.names) }

// Grant reports how many probe targets the class may still spend this tick:
// its own remaining allocation, capped by what the shared per-tick total has
// left. Unregistered classes get nothing.
func (l *Ledger) Grant(c Class) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.known(c) {
		return 0
	}
	return max(min(l.alloc[c]-l.tickSpent[c], l.totalCap-l.tickTotal), 0)
}

// Account books one batch for the class: spent probe targets, of which
// confirmed drew an L4-responsive answer.
func (l *Ledger) Account(c Class, spent, confirmed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.known(c) {
		return
	}
	l.tickSpent[c] += spent
	l.tickTotal += spent
	l.spent[c] += uint64(spent)
	l.confirmed[c] += uint64(confirmed)
}

// ClassTotals is one class's cumulative accounting.
type ClassTotals struct {
	Class     string `json:"class"`
	Spent     uint64 `json:"spent"`
	Confirmed uint64 `json:"confirmed"`
}

// Wasted is the class's probes that bought nothing.
func (ct ClassTotals) Wasted() uint64 {
	if ct.Confirmed > ct.Spent {
		return 0
	}
	return ct.Spent - ct.Confirmed
}

// Efficiency is confirmed/spent (0 when nothing was spent).
func (ct ClassTotals) Efficiency() float64 {
	if ct.Spent == 0 {
		return 0
	}
	return float64(ct.Confirmed) / float64(ct.Spent)
}

// Totals returns every registered class's cumulative accounting, sorted by
// class name.
func (l *Ledger) Totals() []ClassTotals {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]ClassTotals, 0, len(l.names))
	for c, name := range l.names {
		out = append(out, ClassTotals{Class: name, Spent: l.spent[c], Confirmed: l.confirmed[c]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// ClassTotals returns one class's cumulative accounting (zero for a class
// that is not registered).
func (l *Ledger) ClassTotals(class string) ClassTotals {
	l.mu.Lock()
	defer l.mu.Unlock()
	ct := ClassTotals{Class: class}
	if c, ok := l.index[class]; ok {
		ct.Spent, ct.Confirmed = l.spent[c], l.confirmed[c]
	}
	return ct
}

// TotalSpent sums cumulative spend across classes.
func (l *Ledger) TotalSpent() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n uint64
	for _, s := range l.spent {
		n += s
	}
	return n
}

// LedgerState is the ledger's serializable cumulative accounting (per-tick
// state is always empty at a tick-boundary checkpoint).
type LedgerState struct {
	Classes []ClassTotals `json:"classes,omitempty"`
}

// State captures cumulative totals for checkpointing.
func (l *Ledger) State() LedgerState {
	return LedgerState{Classes: l.Totals()}
}

// Restore replaces cumulative totals with a captured state. Allocations are
// configuration, not state: classes must already be registered.
func (l *Ledger) Restore(st LedgerState) {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.spent)
	clear(l.confirmed)
	for _, ct := range st.Classes {
		if c, ok := l.index[ct.Class]; ok {
			l.spent[c], l.confirmed[c] = ct.Spent, ct.Confirmed
		}
	}
	clear(l.tickSpent)
	l.tickTotal = 0
}
