// Deadline budgets: the interrogator's defense against tarpits and other
// slow-loris endpoints. A real scanner pays wall-clock for every read that
// times out and every byte an adversary drips; unbounded, a worker pool
// wedges on a handful of tarpits. Here that cost is modeled as virtual time:
// each read charges its simulated cost against per-connection (handshake)
// and per-candidate (total) budgets, and an exhausted budget makes every
// further read — and every further ladder step — fail fast with ErrTimeout.
//
// Budget exhaustion is a pure function of the candidate and the
// configuration (the endpoint's behavior and the ladder are deterministic),
// so exhaustion counters are identical under any Shards × InterroWorkers
// layout.

package interro

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"censysmap/internal/protocols"
)

// DefaultMaxReadsPerConn is the hard per-connection read cap. It is enforced
// even when no budget is configured: a liveness backstop no benign protocol
// handshake comes near, but which bounds any endpoint that drips forever.
const DefaultMaxReadsPerConn = 4096

// readTimeout is the virtual cost of a read that returns ErrTimeout (a
// scanner's per-read socket deadline). Data reads charge the endpoint's
// ReadDelay, if any.
const readTimeout = 2 * time.Second

// Budget bounds the virtual wall-clock one candidate's interrogation may
// consume. The zero value disables time budgets (legacy behavior); the
// per-connection read cap is always enforced.
type Budget struct {
	// Handshake is the per-connection budget; each ladder step reconnects
	// and gets a fresh allocation. 0 means unlimited.
	Handshake time.Duration
	// Total is the per-candidate budget shared across all connections the
	// detection ladder opens. Once exhausted, remaining ladder steps are
	// skipped entirely. 0 means unlimited.
	Total time.Duration
}

// Enabled reports whether any virtual-time budget is configured.
func (b Budget) Enabled() bool { return b.Handshake > 0 || b.Total > 0 }

// DeadlineStats counts budget-exhaustion events. Like the interrogation
// outcome counters these are process-local: they reset on resume and are
// never part of checkpointed state.
type DeadlineStats struct {
	// ReadCapExhausted counts connections that hit the hard read cap.
	ReadCapExhausted uint64
	// HandshakeExhausted counts connections whose handshake budget ran out.
	HandshakeExhausted uint64
	// TotalExhausted counts candidates whose total budget ran out.
	TotalExhausted uint64
	// VirtualMillis is the total simulated wall-clock charged to reads.
	VirtualMillis uint64
}

// deadlineCounters live on the Interrogator (shared across workers).
type deadlineCounters struct {
	readCap   atomic.Uint64
	handshake atomic.Uint64
	total     atomic.Uint64
	virtualMS atomic.Uint64
}

// readDelayer is implemented by endpoints whose successful reads cost
// simulated wall-clock (e.g. dripping tarpits).
type readDelayer interface{ ReadDelay() time.Duration }

// budgetState is the per-candidate budget ledger. One candidate is processed
// by exactly one worker, so no locking is needed. It embeds the one
// budgetConn the candidate's connections share: the detection ladder uses
// its connections strictly sequentially (every read on a connection happens
// before the next reconnect), so reusing the wrapper is safe and keeps the
// benign hot path free of per-connection allocations.
type budgetState struct {
	i              *Interrogator
	totalOn        bool
	totalLeft      time.Duration
	totalExhausted bool
	conn           budgetConn
}

// budgetPool recycles budgetState across candidates; with it the always-on
// read cap costs zero steady-state allocations on the benign path.
var budgetPool = sync.Pool{New: func() any { return new(budgetState) }}

func (i *Interrogator) newBudgetState() *budgetState {
	bs := budgetPool.Get().(*budgetState)
	*bs = budgetState{i: i}
	if i.Budget.Total > 0 {
		bs.totalOn = true
		bs.totalLeft = i.Budget.Total
	}
	return bs
}

// release returns the state to the pool. Call only after the candidate's
// result has been fully extracted — nothing may touch the wrapper again.
func (bs *budgetState) release() {
	bs.conn = budgetConn{}
	budgetPool.Put(bs)
}

func (bs *budgetState) chargeTotal(cost time.Duration) {
	if !bs.totalOn || bs.totalExhausted {
		return
	}
	bs.totalLeft -= cost
	if bs.totalLeft <= 0 {
		bs.totalExhausted = true
		bs.i.deadline.total.Add(1)
	}
}

// wrap puts a fresh per-connection budget around an endpoint connection,
// reusing the candidate's embedded wrapper (see budgetState).
func (bs *budgetState) wrap(conn io.ReadWriter) io.ReadWriter {
	b := bs.i.Budget
	bs.conn = budgetConn{
		inner:  conn,
		bs:     bs,
		hsOn:   b.Handshake > 0,
		hsLeft: b.Handshake,
	}
	return &bs.conn
}

// budgetConn charges virtual time for reads and fails fast once a budget
// scope is exhausted.
type budgetConn struct {
	inner io.ReadWriter
	bs    *budgetState

	hsOn        bool
	hsLeft      time.Duration
	hsExhausted bool

	reads  int
	capHit bool
}

func (c *budgetConn) Read(p []byte) (int, error) {
	if c.bs.totalExhausted || c.hsExhausted {
		return 0, protocols.ErrTimeout
	}
	if c.reads >= DefaultMaxReadsPerConn {
		if !c.capHit {
			c.capHit = true
			c.bs.i.deadline.readCap.Add(1)
		}
		return 0, protocols.ErrTimeout
	}
	c.reads++
	n, err := c.inner.Read(p)
	var cost time.Duration
	if n == 0 && err == protocols.ErrTimeout {
		cost = readTimeout
	} else if n > 0 {
		if d, ok := c.inner.(readDelayer); ok {
			cost = d.ReadDelay()
		}
	}
	if cost > 0 {
		c.charge(cost)
	}
	return n, err
}

func (c *budgetConn) Write(p []byte) (int, error) { return c.inner.Write(p) }

func (c *budgetConn) charge(cost time.Duration) {
	c.bs.i.deadline.virtualMS.Add(uint64(cost / time.Millisecond))
	if c.hsOn && !c.hsExhausted {
		c.hsLeft -= cost
		if c.hsLeft <= 0 {
			c.hsExhausted = true
			c.bs.i.deadline.handshake.Add(1)
		}
	}
	c.bs.chargeTotal(cost)
}

// DeadlineStats returns cumulative budget-exhaustion counters.
func (i *Interrogator) DeadlineStats() DeadlineStats {
	return DeadlineStats{
		ReadCapExhausted:   i.deadline.readCap.Load(),
		HandshakeExhausted: i.deadline.handshake.Load(),
		TotalExhausted:     i.deadline.total.Load(),
		VirtualMillis:      i.deadline.virtualMS.Load(),
	}
}
