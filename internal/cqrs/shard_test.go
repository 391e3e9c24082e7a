package cqrs

import (
	"fmt"
	"net/netip"
	"sort"
	"testing"

	"censysmap/internal/entity"
	"censysmap/internal/journal"
)

func obsFor(a netip.Addr, t0 int) Observation {
	return Observation{
		Addr: a, Port: 80, Transport: entity.TCP, Time: at(t0), PoP: "chi",
		Method: entity.DetectPriorityScan, Success: true,
		Service: &entity.Service{Port: 80, Transport: entity.TCP,
			Protocol: "HTTP", Banner: "ok", Verified: true},
	}
}

// entityIDs lists the entities with materialized state, sorted.
func entityIDs(p *Processor) []string {
	var ids []string
	p.Walk(func(id string, _ *entity.Host) { ids = append(ids, id) })
	sort.Strings(ids)
	return ids
}

// A sharded processor must produce the same per-entity state and the same
// journal as a single-shard one; sharding only changes lock granularity and
// queue layout.
func TestShardedProcessorMatchesSerial(t *testing.T) {
	serial := NewProcessor(DefaultConfig(), journal.NewStore())
	cfg := DefaultConfig()
	cfg.Shards = 8
	sharded := NewProcessor(cfg, journal.NewPartitioned(8))
	if got := sharded.Shards(); got != 8 {
		t.Fatalf("Shards() = %d, want 8", got)
	}

	addrs := make([]netip.Addr, 12)
	for i := range addrs {
		addrs[i] = netip.MustParseAddr(fmt.Sprintf("10.0.1.%d", i*17))
	}
	for _, p := range []*Processor{serial, sharded} {
		for hour := 0; hour < 4; hour++ {
			for _, a := range addrs {
				obs := obsFor(a, hour)
				if hour == 2 {
					obs.Success = false // refresh miss: starts pending removal
					obs.Service = nil
					obs.Method = entity.DetectRefresh
				}
				if err := p.Apply(obs); err != nil {
					t.Fatal(err)
				}
			}
		}
		p.Drain()
	}

	if got, want := entityIDs(sharded), entityIDs(serial); len(got) != len(want) {
		t.Fatalf("entity counts diverge: %d vs %d", len(got), len(want))
	}
	for _, id := range entityIDs(serial) {
		hs := serial.CurrentState(id)
		hp := sharded.CurrentState(id)
		if (hs == nil) != (hp == nil) {
			t.Fatalf("state presence diverges for %s", id)
		}
		if hs == nil {
			continue
		}
		ss, ps := hs.AllServices(), hp.AllServices()
		if len(ss) != len(ps) {
			t.Fatalf("service counts diverge for %s", id)
		}
		for i := range ss {
			if ss[i].Protocol != ps[i].Protocol || ss[i].Port != ps[i].Port ||
				!ss[i].LastSeen.Equal(ps[i].LastSeen) ||
				(ss[i].PendingRemovalSince == nil) != (ps[i].PendingRemovalSince == nil) {
				t.Fatalf("service state diverges for %s: %+v vs %+v", id, ss[i], ps[i])
			}
		}
		es := serial.Journal().Events(id)
		ep := sharded.Journal().Events(id)
		if len(es) != len(ep) {
			t.Fatalf("journal lengths diverge for %s: %d vs %d", id, len(es), len(ep))
		}
		for i := range es {
			if es[i].Kind != ep[i].Kind || es[i].Seq != ep[i].Seq || !es[i].Time.Equal(ep[i].Time) {
				t.Fatalf("journal event %d diverges for %s", i, id)
			}
		}
	}

	so, sn := serial.Stats()
	po, pn := sharded.Stats()
	if so != po || sn != pn {
		t.Fatalf("stats diverge: serial (%d,%d) vs sharded (%d,%d)", so, sn, po, pn)
	}
}

// Drain must deliver events to subscribers in deterministic merged order:
// shard index first, then per-shard enqueue order.
func TestDrainOrderIsDeterministic(t *testing.T) {
	mkProc := func() *Processor {
		cfg := DefaultConfig()
		cfg.Shards = 8
		return NewProcessor(cfg, journal.NewPartitioned(8))
	}
	feed := func(p *Processor, order []int) []string {
		var got []string
		p.Subscribe(func(ev OutEvent) { got = append(got, ev.Entity+"/"+ev.Kind) })
		for _, i := range order {
			a := netip.MustParseAddr(fmt.Sprintf("10.0.2.%d", i*11))
			if err := p.Apply(obsFor(a, 0)); err != nil {
				t.Fatal(err)
			}
		}
		p.Drain()
		return got
	}
	a := feed(mkProc(), []int{0, 1, 2, 3, 4, 5, 6, 7})
	b := feed(mkProc(), []int{0, 1, 2, 3, 4, 5, 6, 7})
	if len(a) == 0 {
		t.Fatal("no events delivered")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("drain order not deterministic:\n %v\n %v", a, b)
	}
}
