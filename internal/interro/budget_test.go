package interro

import (
	"net/netip"
	"testing"
	"time"

	"censysmap/internal/discovery"
	"censysmap/internal/entity"
	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
)

func tarpitUniverse(dripRate float64) (*simnet.Internet, *simclock.Sim) {
	cfg := quietConfig()
	cfg.PseudoHostRate = 0
	cfg.Adversary = simnet.AdversaryConfig{
		Seed:           11,
		TarpitRate:     1.0,
		TarpitDripRate: dripRate,
	}
	clk := simclock.New()
	return simnet.New(cfg, clk), clk
}

func firstTarpit(t *testing.T, net *simnet.Internet, drip bool) netip.Addr {
	t.Helper()
	for _, addr := range net.Addrs() {
		h := net.HostAt(addr)
		if h.Tarpit && h.TarpitDrip == drip {
			return addr
		}
	}
	t.Fatalf("no tarpit with drip=%v in universe", drip)
	return netip.Addr{}
}

func TestStallTarpitExhaustsTotalBudget(t *testing.T) {
	net, clk := tarpitUniverse(0)
	in := New(net, scanner)
	// Handshake == readTimeout: a single silent read exhausts the
	// per-connection scope, so every connection against a stalling tarpit
	// trips the handshake counter before the total budget runs dry.
	in.Budget = Budget{Handshake: readTimeout, Total: 20 * time.Second}

	addr := firstTarpit(t, net, false)
	cand := discovery.Candidate{Addr: addr, Port: 443, Transport: entity.TCP,
		Method: entity.DetectPriorityScan, PoP: "chi"}
	obs := in.Interrogate(cand, clk.Now())
	if obs.Success || obs.Service != nil {
		t.Fatalf("stall tarpit produced a record: %+v", obs)
	}
	ds := in.DeadlineStats()
	if ds.TotalExhausted != 1 {
		t.Fatalf("TotalExhausted = %d, want 1 (once per candidate)", ds.TotalExhausted)
	}
	if ds.HandshakeExhausted == 0 {
		t.Fatal("handshake budget never exhausted against a stalling tarpit")
	}
	if ds.VirtualMillis == 0 {
		t.Fatal("no virtual time charged")
	}

	// A second candidate on the same host gets its own total budget.
	cand.Port = 80
	in.Interrogate(cand, clk.Now())
	if got := in.DeadlineStats().TotalExhausted; got != 2 {
		t.Fatalf("TotalExhausted = %d after two candidates, want 2", got)
	}
}

func TestDripTarpitYieldsUnknownAndChargesDelay(t *testing.T) {
	net, clk := tarpitUniverse(1.0)
	in := New(net, scanner)
	in.Budget = Budget{Handshake: 8 * time.Second, Total: 20 * time.Second}

	addr := firstTarpit(t, net, true)
	cand := discovery.Candidate{Addr: addr, Port: 8080, Transport: entity.TCP,
		Method: entity.DetectPriorityScan, PoP: "chi"}
	obs := in.Interrogate(cand, clk.Now())
	// A dripping tarpit delivers one junk byte to the banner read: the
	// ladder records it as an UNKNOWN service (the pseudo-service filter
	// upstream deals with hosts that do this on every port).
	if !obs.Success || obs.Service == nil || obs.Service.Protocol != "UNKNOWN" {
		t.Fatalf("drip tarpit: want UNKNOWN record, got %+v", obs)
	}
	if in.DeadlineStats().VirtualMillis == 0 {
		t.Fatal("drip reads charged no virtual time")
	}
}

// TestHardReadCapBoundsUncappedLadder proves the liveness backstop: even
// with no budget configured, a connection cannot be read forever.
func TestHardReadCapBoundsUncappedLadder(t *testing.T) {
	net, clk := tarpitUniverse(1.0)
	in := New(net, scanner) // no time budgets at all

	addr := firstTarpit(t, net, true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		in.Interrogate(discovery.Candidate{Addr: addr, Port: 22, Transport: entity.TCP,
			Method: entity.DetectPriorityScan, PoP: "chi"}, clk.Now())
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("interrogation without time budgets never finished")
	}
}

// endless answers every read with one byte, forever.
type endless struct{}

func (endless) Read(p []byte) (int, error)  { p[0] = 'x'; return 1, nil }
func (endless) Write(p []byte) (int, error) { return len(p), nil }

// TestReadCapFailsFast: a connection that never stops answering is cut off
// after DefaultMaxReadsPerConn reads, and counted once.
func TestReadCapFailsFast(t *testing.T) {
	net, _ := tarpitUniverse(1.0)
	bs := New(net, scanner).newBudgetState()
	defer bs.release()
	conn := bs.wrap(endless{})
	buf := make([]byte, 1)
	reads := 0
	for ; reads <= DefaultMaxReadsPerConn; reads++ {
		if _, err := conn.Read(buf); err != nil {
			break
		}
	}
	if reads != DefaultMaxReadsPerConn {
		t.Fatalf("connection cut off after %d reads, want %d", reads, DefaultMaxReadsPerConn)
	}
	conn.Read(buf)
	if got := bs.i.DeadlineStats().ReadCapExhausted; got != 1 {
		t.Fatalf("ReadCapExhausted = %d, want 1", got)
	}
}

// TestBudgetsDoNotChangeBenignOutcomes: on a benign universe, enabling
// generous budgets must not change a single interrogation outcome — budgets
// only bite when an endpoint is hostile.
func TestBudgetsDoNotChangeBenignOutcomes(t *testing.T) {
	clk1 := simclock.New()
	net1 := simnet.New(quietConfig(), clk1)
	plain := New(net1, scanner)

	clk2 := simclock.New()
	net2 := simnet.New(quietConfig(), clk2)
	budgeted := New(net2, scanner)
	budgeted.Budget = Budget{Handshake: time.Minute, Total: 5 * time.Minute}

	services := net1.LiveServices(clk1.Now(), false)
	if len(services) == 0 {
		t.Fatal("empty universe")
	}
	for _, ref := range services {
		a := plain.Interrogate(candidateFor(ref), clk1.Now())
		b := budgeted.Interrogate(candidateFor(ref), clk2.Now())
		if a.Success != b.Success {
			t.Fatalf("budget changed outcome for %+v: %v vs %v", ref, a.Success, b.Success)
		}
		switch {
		case a.Service == nil && b.Service == nil:
		case a.Service == nil || b.Service == nil:
			t.Fatalf("budget changed service presence for %+v", ref)
		case a.Service.Protocol != b.Service.Protocol || a.Service.Verified != b.Service.Verified:
			t.Fatalf("budget changed identification for %+v: %+v vs %+v", ref, a.Service, b.Service)
		}
	}
	if ds := budgeted.DeadlineStats(); ds.TotalExhausted != 0 || ds.HandshakeExhausted != 0 || ds.ReadCapExhausted != 0 {
		t.Fatalf("benign universe exhausted budgets: %+v", ds)
	}
}

// The exhaustion counts of a candidate are a pure function of the candidate:
// interrogating the same tarpit candidates in any order yields identical
// counter totals.
func TestDeadlineCountersOrderInvariant(t *testing.T) {
	run := func(reverse bool) DeadlineStats {
		net, clk := tarpitUniverse(0)
		in := New(net, scanner)
		in.Budget = Budget{Total: 12 * time.Second}
		addrs := net.Addrs()
		var cands []discovery.Candidate
		for i, addr := range addrs {
			if !net.HostAt(addr).Tarpit {
				continue
			}
			cands = append(cands, discovery.Candidate{Addr: addr, Port: uint16(1000 + i),
				Transport: entity.TCP, Method: entity.DetectPriorityScan, PoP: "chi"})
			if len(cands) == 16 {
				break
			}
		}
		if reverse {
			for l, r := 0, len(cands)-1; l < r; l, r = l+1, r-1 {
				cands[l], cands[r] = cands[r], cands[l]
			}
		}
		for _, c := range cands {
			in.Interrogate(c, clk.Now())
		}
		return in.DeadlineStats()
	}
	a, b := run(false), run(true)
	if a != b {
		t.Fatalf("deadline counters depend on candidate order: %+v vs %+v", a, b)
	}
}
