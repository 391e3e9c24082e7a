package cqrs

import (
	"cmp"
	"encoding/json"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"censysmap/internal/entity"
	"censysmap/internal/journal"
)

// mixedWorkload drives a processor through every event kind: found, changed
// (enough to cross the snapshot cadence), un-journaled no-change refreshes,
// failure -> pending, pending -> restored, and pending -> removed.
func mixedWorkload(t *testing.T, p *Processor) {
	t.Helper()
	a1 := netip.MustParseAddr("10.0.0.1")
	a2 := netip.MustParseAddr("10.0.0.2")
	a3 := netip.MustParseAddr("10.0.0.3")
	a4 := netip.MustParseAddr("10.0.0.4")

	svc := func(port uint16, tr entity.Transport, proto, banner string) *entity.Service {
		return &entity.Service{Port: port, Transport: tr, Protocol: proto, Banner: banner, Verified: true}
	}
	apply := func(o Observation) {
		t.Helper()
		if err := p.Apply(o); err != nil {
			t.Fatal(err)
		}
	}

	// a1: HTTP with banner churn crossing SnapshotEvery, then no-change
	// refreshes that only move the ephemeral liveness clock.
	apply(Observation{Addr: a1, Port: 80, Transport: entity.TCP, Time: at(0), PoP: "chi",
		Method: entity.DetectPriorityScan, Success: true, Service: svc(80, entity.TCP, "HTTP", "v0")})
	for i := 1; i <= 7; i++ {
		apply(Observation{Addr: a1, Port: 80, Transport: entity.TCP, Time: at(i), PoP: "chi",
			Method: entity.DetectRefresh, Success: true, Service: svc(80, entity.TCP, "HTTP", "v"+string(rune('0'+i)))})
	}
	apply(Observation{Addr: a1, Port: 80, Transport: entity.TCP, Time: at(9), PoP: "fra",
		Method: entity.DetectRefresh, Success: true, Service: svc(80, entity.TCP, "HTTP", "v7")})

	// a2: found, then failures spanning EvictAfter -> pending -> removed.
	apply(Observation{Addr: a2, Port: 22, Transport: entity.TCP, Time: at(0), PoP: "chi",
		Method: entity.DetectPriorityScan, Success: true, Service: svc(22, entity.TCP, "SSH", "OpenSSH")})
	apply(Observation{Addr: a2, Port: 22, Transport: entity.TCP, Time: at(10), Method: entity.DetectRefresh})
	apply(Observation{Addr: a2, Port: 22, Transport: entity.TCP, Time: at(10 + 73), Method: entity.DetectRefresh})

	// a3: UDP service whose last touch is an un-journaled no-change refresh
	// from a different PoP — the ephemeral LastSeen/SourcePoP patch case.
	apply(Observation{Addr: a3, Port: 123, Transport: entity.UDP, Time: at(2), PoP: "chi",
		Method: entity.DetectPriorityScan, Success: true, Service: svc(123, entity.UDP, "NTP", "ntpd")})
	apply(Observation{Addr: a3, Port: 123, Transport: entity.UDP, Time: at(30), PoP: "sin",
		Method: entity.DetectRefresh, Success: true, Service: svc(123, entity.UDP, "NTP", "ntpd")})

	// a4: no-change refresh then failure -> still pending at the end; its
	// live LastSeen is newer than anything journaled.
	apply(Observation{Addr: a4, Port: 443, Transport: entity.TCP, Time: at(0), PoP: "chi",
		Method: entity.DetectPriorityScan, Success: true, Service: svc(443, entity.TCP, "HTTP", "tls")})
	apply(Observation{Addr: a4, Port: 443, Transport: entity.TCP, Time: at(5), PoP: "fra",
		Method: entity.DetectRefresh, Success: true, Service: svc(443, entity.TCP, "HTTP", "tls")})
	apply(Observation{Addr: a4, Port: 443, Transport: entity.TCP, Time: at(6), Method: entity.DetectRefresh})
	p.Drain()
}

func hostJSON(t *testing.T, h *entity.Host) string {
	t.Helper()
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRebuildProcessorMatchesLive(t *testing.T) {
	cfg := Config{EvictAfter: 72 * time.Hour, SnapshotEvery: 3, Shards: 4}
	j := journal.NewPartitioned(4)
	live := NewProcessor(cfg, j)
	mixedWorkload(t, live)

	rebuilt, err := RebuildProcessor(cfg, j, at(300))
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint the live ephemerals through JSON, as a crash would.
	blob, err := json.Marshal(live.Ephemeral())
	if err != nil {
		t.Fatal(err)
	}
	var eph Ephemeral
	if err := json.Unmarshal(blob, &eph); err != nil {
		t.Fatal(err)
	}
	rebuilt.RestoreEphemeral(eph)

	// Every live host that still has services must rebuild identically —
	// including un-journaled LastSeen/SourcePoP liveness.
	compared := 0
	for _, id := range entityIDs(live) {
		lh := live.CurrentState(id)
		if lh == nil || len(lh.AllServices()) == 0 {
			// Fully evicted hosts leave only their journal trail; the
			// rebuilt write model need not materialize them.
			continue
		}
		rh := rebuilt.CurrentState(id)
		if rh == nil {
			t.Fatalf("entity %s missing after rebuild", id)
		}
		if got, want := hostJSON(t, rh), hostJSON(t, lh); got != want {
			t.Fatalf("entity %s state diverged after rebuild:\n got %s\nwant %s", id, got, want)
		}
		compared++
	}
	if compared < 3 {
		t.Fatalf("only %d live entities compared; workload broken", compared)
	}

	// The rebuilt processor's own ephemerals must round-trip exactly.
	if !reflect.DeepEqual(live.Ephemeral(), rebuilt.Ephemeral()) {
		t.Fatalf("ephemeral state diverged:\n got %+v\nwant %+v", rebuilt.Ephemeral(), live.Ephemeral())
	}

	// Snapshot cadence bookkeeping must be recomputed, not reset: a1 churned
	// through multiple snapshots, so its since-snapshot count is mid-cycle.
	a1 := "10.0.0.1"
	if got, want := j.EventsSinceSnapshot(a1), 0; got == want {
		t.Fatalf("workload should leave %s mid-snapshot-cycle", a1)
	}
}

func TestRebuildHonorsAsOf(t *testing.T) {
	cfg := Config{EvictAfter: 72 * time.Hour, SnapshotEvery: 3, Shards: 2}
	j := journal.NewPartitioned(2)
	live := NewProcessor(cfg, j)
	mixedWorkload(t, live)

	// Rebuilding as of hour 4 must exclude every later event.
	rebuilt, err := RebuildProcessor(cfg, j, at(4))
	if err != nil {
		t.Fatal(err)
	}
	h := rebuilt.CurrentState("10.0.0.1")
	if h == nil {
		t.Fatal("10.0.0.1 missing")
	}
	s := h.Service(entity.ServiceKey{Port: 80, Transport: entity.TCP})
	if s == nil || s.Banner != "v4" {
		t.Fatalf("asOf replay gave banner %v, want v4", s)
	}
	// a2's failures happen at hours 10 and 83 — beyond asOf, so its SSH
	// service must still be live, not pending.
	h2 := rebuilt.CurrentState("10.0.0.2")
	if h2 == nil {
		t.Fatal("10.0.0.2 missing")
	}
	ssh := h2.Service(entity.ServiceKey{Port: 22, Transport: entity.TCP})
	if ssh == nil || ssh.PendingRemovalSince != nil {
		t.Fatalf("asOf replay leaked future failure events: %+v", ssh)
	}
}

// TestReplayIsLossless: what the write side holds is what replay gives back,
// to the byte and to the nanosecond. Banners and attributes that are not
// UTF-8 (the JSON payload journaled them as U+FFFD), a zero FirstSeen (which
// UnixNano cannot carry) and a nanosecond LastSeen must come out of HostAt
// and RebuildProcessor reflect.DeepEqual to CurrentState — from deltas alone
// and across a snapshot.
func TestReplayIsLossless(t *testing.T) {
	for _, every := range []int{100, 2} {
		cfg := Config{EvictAfter: 72 * time.Hour, SnapshotEvery: every}
		j := journal.NewStore()
		p := NewProcessor(cfg, j)
		late := at(3).Add(123456789 * time.Nanosecond)
		for i, o := range []Observation{
			{Time: time.Time{}, Port: 80, Service: &entity.Service{Protocol: "HTTP", Banner: "\xff\xfe raw \xc3("}},
			{Time: at(1), Port: 80, Service: &entity.Service{Protocol: "HTTP", Banner: "\xff\xfe raw \xc3(",
				Attributes: map[string]string{"k\xff": "v\xed\xa0\x80", "k\xfe": "<&> "}}},
			{Time: at(2), Port: 161, Service: &entity.Service{Protocol: "SNMP", Banner: "\x00\x01"}},
			{Time: late, Port: 80, Service: &entity.Service{Protocol: "HTTP", Banner: "v2 \xf0\x28\x8c\x28", TLS: true}},
			{Time: late, Port: 161}, // failed refresh: pending since a nanosecond instant
		} {
			o.Addr, o.Transport, o.PoP, o.Method = addr, entity.TCP, "p\xffp", entity.DetectRefresh
			if o.Service != nil {
				o.Success, o.Service.Port, o.Service.Transport = true, o.Port, o.Transport
			}
			if err := p.Apply(o); err != nil {
				t.Fatalf("apply %d: %v", i, err)
			}
		}
		want := p.CurrentState(addr.String())
		if svc := want.Service(entity.ServiceKey{Port: 80, Transport: entity.TCP}); !svc.FirstSeen.IsZero() || svc.LastSeen != late {
			t.Fatalf("fixture lost its edge times: %+v", svc)
		}
		got, ok := NewReader(j, nil).HostAt(addr.String(), late)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("snapshot every %d: HostAt replayed\n got  %s\n want %s", every, hostJSON(t, got), hostJSON(t, want))
		}
		rebuilt, err := RebuildProcessor(cfg, j, late)
		if err != nil {
			t.Fatal(err)
		}
		if got := rebuilt.CurrentState(addr.String()); !reflect.DeepEqual(got, want) {
			t.Errorf("snapshot every %d: RebuildProcessor replayed\n got  %s\n want %s", every, hostJSON(t, got), hostJSON(t, want))
		}
	}
}

// TestLivenessDecodeInternsKeys: a decoded Liveness round-trips, and every
// slot with the same key shares one string — a checkpoint's slot list
// decodes one key string per distinct port/transport, not one per slot.
func TestLivenessDecodeInternsKeys(t *testing.T) {
	keys := []string{"22/tcp", "443/tcp", "53/udp", "80/tcp", "8080/tcp"}
	at := time.Date(2024, 8, 20, 0, 0, 0, 0, time.UTC)
	var l Liveness
	for h := 0; h < 200; h++ {
		entity := netip.AddrFrom4([4]byte{10, 0, byte(h >> 8), byte(h)}).String()
		for k := h % 3; k < len(keys); k += 2 {
			l = append(l, SlotLiveness{Entity: entity, Key: keys[k], At: at.Add(time.Duration(h) * time.Minute), PoP: "chi"})
		}
	}
	slices.SortFunc(l, func(a, b SlotLiveness) int {
		return cmp.Or(cmp.Compare(a.Entity, b.Entity), cmp.Compare(a.Key, b.Key))
	})
	blob, err := l.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var got Liveness
	if err := got.UnmarshalJSON(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Fatal("liveness did not round-trip")
	}
	data := map[string]*byte{}
	for _, sl := range got {
		p := unsafe.StringData(sl.Key)
		if q, ok := data[sl.Key]; ok && q != p {
			t.Fatalf("key %q decoded as more than one string", sl.Key)
		}
		data[sl.Key] = p
	}
	if len(data) != len(keys) {
		t.Fatalf("decoded %d distinct keys, want %d", len(data), len(keys))
	}
}
