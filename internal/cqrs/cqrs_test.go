package cqrs

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"censysmap/internal/entity"
	"censysmap/internal/journal"
)

var (
	addr  = netip.MustParseAddr("10.0.0.1")
	epoch = time.Date(2024, 8, 20, 0, 0, 0, 0, time.UTC)
)

func at(h int) time.Time { return epoch.Add(time.Duration(h) * time.Hour) }

func newPipeline() (*Processor, *Reader) {
	j := journal.NewStore()
	p := NewProcessor(Config{}, j)
	return p, NewReader(j, nil)
}

func obsHTTP(t time.Time, banner string) Observation {
	return Observation{
		Addr: addr, Port: 80, Transport: entity.TCP, Time: t, PoP: "chi",
		Method: entity.DetectPriorityScan, Success: true,
		Service: &entity.Service{Port: 80, Transport: entity.TCP,
			Protocol: "HTTP", Banner: banner, Verified: true},
	}
}

func failObs(t time.Time) Observation {
	return Observation{Addr: addr, Port: 80, Transport: entity.TCP, Time: t,
		Method: entity.DetectRefresh}
}

func TestFoundJournalsAndReconstructs(t *testing.T) {
	p, r := newPipeline()
	if err := p.Apply(obsHTTP(at(0), "HTTP/1.1 200 OK")); err != nil {
		t.Fatal(err)
	}
	h, ok := r.HostAt(addr.String(), at(1))
	if !ok {
		t.Fatal("host not found")
	}
	svc := h.Service(entity.ServiceKey{Port: 80, Transport: entity.TCP})
	if svc == nil || svc.Protocol != "HTTP" || !svc.FirstSeen.Equal(at(0)) {
		t.Fatalf("svc = %+v", svc)
	}
}

func TestUnchangedRefreshJournalsNothing(t *testing.T) {
	p, _ := newPipeline()
	p.Apply(obsHTTP(at(0), "same"))
	for i := 1; i <= 5; i++ {
		p.Apply(obsHTTP(at(i), "same"))
	}
	evs := p.Journal().Events(addr.String())
	if len(evs) != 1 {
		t.Fatalf("journal has %d events, want 1 (delta encoding)", len(evs))
	}
	obs, noChange := p.Stats()
	if obs != 6 || noChange != 5 {
		t.Fatalf("stats = %d/%d", obs, noChange)
	}
	// Liveness still tracked without journaling: the materialized record is
	// its only owner, and Ephemeral reads it from there.
	key := entity.ServiceKey{Port: 80, Transport: entity.TCP}
	if svc := p.CurrentState(addr.String()).Service(key); svc == nil || !svc.LastSeen.Equal(at(5)) {
		t.Fatalf("materialized service = %+v, want LastSeen %v", svc, at(5))
	}
	want := []SlotLiveness{{Entity: addr.String(), Key: key.String(), At: at(5), PoP: "chi"}}
	if got := p.Ephemeral().Slots; !reflect.DeepEqual(got, want) {
		t.Fatalf("Ephemeral().Slots = %+v, want %+v", got, want)
	}
}

// An evicted slot's liveness leaves the checkpointed ephemerals with its
// record (the parent kept it in a side table forever).
func TestEvictedSlotLeavesEphemeral(t *testing.T) {
	p, _ := newPipeline()
	p.Apply(obsHTTP(at(0), "x"))
	other := obsHTTP(at(0), "y")
	other.Port, other.Service.Port = 8080, 8080
	p.Apply(other)
	p.Apply(failObs(at(24)))
	if n := len(p.Ephemeral().Slots); n != 2 {
		t.Fatalf("pending slot must stay listed: %d slots, want 2", n)
	}
	p.Apply(failObs(at(24 + 72)))
	key := entity.ServiceKey{Port: 80, Transport: entity.TCP}
	if _, ok, _ := p.LastSeen(addr.String(), key); ok {
		t.Fatal("slot not evicted")
	}
	slots := p.Ephemeral().Slots
	if len(slots) != 1 || slots[0].Key != "8080/tcp" {
		t.Fatalf("Ephemeral().Slots after eviction = %+v, want only 8080/tcp", slots)
	}
	seen, ok, n := p.LastSeen(addr.String(), entity.ServiceKey{Port: 8080, Transport: entity.TCP})
	_, stranger, none := p.LastSeen("10.9.9.9", key)
	if !ok || !seen.Equal(at(0)) || n != 1 || stranger || none != 0 {
		t.Fatalf("LastSeen disagrees with materialized state: %v %v %d services, unknown host %v %d",
			seen, ok, n, stranger, none)
	}
	if _, held, n := p.LastSeen(addr.String(), key); held || n != 1 {
		t.Fatalf("LastSeen of the evicted slot: held %v, %d services; want false, 1", held, n)
	}
}

func TestChangedConfigJournalsDelta(t *testing.T) {
	p, r := newPipeline()
	p.Apply(obsHTTP(at(0), "v1"))
	p.Apply(obsHTTP(at(1), "v2"))
	evs := p.Journal().Events(addr.String())
	if len(evs) != 2 || evs[1].Kind != KindServiceChanged {
		t.Fatalf("events = %+v", evs)
	}
	// Time travel: state at hour 0 shows v1; at hour 2 shows v2.
	h0, _ := r.HostAt(addr.String(), at(0))
	h2, _ := r.HostAt(addr.String(), at(2))
	key := entity.ServiceKey{Port: 80, Transport: entity.TCP}
	if h0.Service(key).Banner != "v1" || h2.Service(key).Banner != "v2" {
		t.Fatalf("history wrong: %q / %q", h0.Service(key).Banner, h2.Service(key).Banner)
	}
}

func TestEvictionStateMachine(t *testing.T) {
	p, r := newPipeline()
	key := entity.ServiceKey{Port: 80, Transport: entity.TCP}
	p.Apply(obsHTTP(at(0), "x"))

	// First failure: pending, not removed.
	p.Apply(failObs(at(24)))
	h, _ := r.HostAt(addr.String(), at(25))
	if h.Service(key) == nil || h.Service(key).PendingRemovalSince == nil {
		t.Fatal("service not marked pending after failed refresh")
	}
	if len(h.ActiveServices()) != 0 {
		t.Fatal("pending service counted active")
	}

	// Failures inside the 72h window do not evict.
	p.Apply(failObs(at(48)))
	h, _ = r.HostAt(addr.String(), at(49))
	if h.Service(key) == nil {
		t.Fatal("service evicted inside grace window")
	}

	// Failure after 72h evicts.
	p.Apply(failObs(at(24 + 73)))
	h, ok := r.HostAt(addr.String(), at(100))
	if !ok {
		t.Fatal("host record should still exist")
	}
	if h.Service(key) != nil {
		t.Fatal("service not evicted after 72h")
	}
	// History preserves the full lifecycle.
	kinds := []string{}
	for _, ev := range r.History(addr.String()) {
		kinds = append(kinds, ev.Kind)
	}
	want := []string{KindServiceFound, KindServicePending, KindServiceRemoved}
	if len(kinds) != 3 {
		t.Fatalf("history kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("history kinds = %v, want %v", kinds, want)
		}
	}
}

func TestPendingServiceRestored(t *testing.T) {
	p, r := newPipeline()
	key := entity.ServiceKey{Port: 80, Transport: entity.TCP}
	p.Apply(obsHTTP(at(0), "x"))
	p.Apply(failObs(at(24)))
	p.Apply(obsHTTP(at(48), "x")) // transient outage over; same config

	evs := p.Journal().Events(addr.String())
	if evs[len(evs)-1].Kind != KindServiceRestored {
		t.Fatalf("last event = %s, want restored", evs[len(evs)-1].Kind)
	}
	h, _ := r.HostAt(addr.String(), at(49))
	svc := h.Service(key)
	if svc == nil || svc.PendingRemovalSince != nil {
		t.Fatalf("svc = %+v, want pending cleared", svc)
	}
	if len(h.ActiveServices()) != 1 {
		t.Fatal("restored service not active")
	}
}

func TestFailedScanOfUnknownSlotIgnored(t *testing.T) {
	p, _ := newPipeline()
	if err := p.Apply(failObs(at(0))); err != nil {
		t.Fatal(err)
	}
	if len(p.Journal().Events(addr.String())) != 0 {
		t.Fatal("failure on unknown slot journaled")
	}
}

func TestSnapshotCadenceBoundsReplay(t *testing.T) {
	j := journal.NewStore()
	p := NewProcessor(Config{EvictAfter: 72 * time.Hour, SnapshotEvery: 4}, j)
	for i := 0; i < 20; i++ {
		p.Apply(obsHTTP(at(i), "v"+string(rune('a'+i))))
	}
	if j.EventsSinceSnapshot(addr.String()) >= 4 {
		t.Fatalf("replay length %d not bounded by snapshot cadence", j.EventsSinceSnapshot(addr.String()))
	}
	st := j.Stats()
	if st.Snapshots == 0 {
		t.Fatal("no snapshots journaled")
	}
	// Reconstruction through snapshots must equal write-side state.
	r := NewReader(j, nil)
	h, _ := r.HostAt(addr.String(), at(30))
	ws := p.CurrentState(addr.String())
	key := entity.ServiceKey{Port: 80, Transport: entity.TCP}
	if h.Service(key).Banner != ws.Service(key).Banner {
		t.Fatalf("read-side %q != write-side %q", h.Service(key).Banner, ws.Service(key).Banner)
	}
}

func TestMultipleServicesPerHost(t *testing.T) {
	p, r := newPipeline()
	p.Apply(obsHTTP(at(0), "web"))
	p.Apply(Observation{Addr: addr, Port: 22, Transport: entity.TCP, Time: at(0),
		Success: true, Service: &entity.Service{Port: 22, Transport: entity.TCP, Protocol: "SSH", Verified: true}})
	h, _ := r.HostAt(addr.String(), at(1))
	if len(h.ActiveServices()) != 2 {
		t.Fatalf("services = %d, want 2", len(h.ActiveServices()))
	}
}

// enricherFunc adapts a function to the Enricher interface.
type enricherFunc func(h *entity.Host)

func (f enricherFunc) Enrich(h *entity.Host) { f(h) }

func TestEnricherRunsAtReadTime(t *testing.T) {
	j := journal.NewStore()
	p := NewProcessor(Config{}, j)
	p.Apply(obsHTTP(at(0), "x"))
	r := NewReader(j, enricherFunc(func(h *entity.Host) {
		h.Location = &entity.Location{Country: "DE"}
	}))
	h, _ := r.HostAt(addr.String(), at(1))
	if h.Location == nil || h.Location.Country != "DE" {
		t.Fatal("enrichment not applied")
	}
	// Enrichment never touches the journal.
	for _, ev := range j.Events(addr.String()) {
		if ev.Kind == journal.SnapshotKind {
			snap, _ := DecodeHostSnapshot(ev.Payload)
			if snap.Location != nil {
				t.Fatal("derived context leaked into journal")
			}
		}
	}
}

func TestDrainDispatchesSubscribers(t *testing.T) {
	p, _ := newPipeline()
	var got []OutEvent
	p.Subscribe(func(ev OutEvent) { got = append(got, ev) })
	p.Apply(obsHTTP(at(0), "x"))
	if p.QueueLen() != 1 {
		t.Fatalf("QueueLen = %d", p.QueueLen())
	}
	if n := p.Drain(); n != 1 {
		t.Fatalf("Drain = %d", n)
	}
	if len(got) != 1 || got[0].Kind != KindServiceFound {
		t.Fatalf("subscriber got %+v", got)
	}
	if p.Drain() != 0 {
		t.Fatal("second drain re-delivered")
	}
}

func TestReadSideMatchesWriteSideAfterChurn(t *testing.T) {
	// Fuzz-ish consistency: a random-ish sequence of observations must
	// leave read-side reconstruction equal to write-side state.
	j := journal.NewStore()
	p := NewProcessor(Config{EvictAfter: 10 * time.Hour, SnapshotEvery: 3}, j)
	r := NewReader(j, nil)
	banners := []string{"a", "b", "a", "a", "c"}
	hour := 0
	for round := 0; round < 30; round++ {
		hour++
		if round%7 == 3 {
			p.Apply(failObs(at(hour)))
			continue
		}
		p.Apply(obsHTTP(at(hour), banners[round%len(banners)]))
	}
	ws := p.CurrentState(addr.String())
	rs, ok := r.HostAt(addr.String(), at(hour))
	if !ok {
		t.Fatal("read side missing host")
	}
	key := entity.ServiceKey{Port: 80, Transport: entity.TCP}
	wsvc, rsvc := ws.Service(key), rs.Service(key)
	if (wsvc == nil) != (rsvc == nil) {
		t.Fatalf("presence mismatch: write=%v read=%v", wsvc, rsvc)
	}
	if wsvc != nil && !wsvc.ConfigEqual(rsvc) {
		t.Fatalf("config mismatch: %+v vs %+v", wsvc, rsvc)
	}
}

func TestHostAtBadEntityID(t *testing.T) {
	j := journal.NewStore()
	j.Append("not-an-ip", at(0), KindServiceFound,
		AppendServiceEvent(nil, &entity.Service{Port: 1, Transport: entity.TCP, Protocol: "X"}))
	r := NewReader(j, nil)
	if _, ok := r.HostAt("not-an-ip", at(1)); ok {
		t.Fatal("bad entity id reconstructed")
	}
}

// TestRetireRemovesNowAndReplays: Retire journals one removal dated t — no
// grace window, nothing in the future — so the entity's row accepts the next
// append, and replay agrees with the materialized state.
func TestRetireRemovesNowAndReplays(t *testing.T) {
	p, r := newPipeline()
	key := entity.ServiceKey{Port: 80, Transport: entity.TCP}
	if err := p.Retire(addr, key, at(0)); err != nil || len(p.Journal().Events(addr.String())) != 0 {
		t.Fatalf("retiring an unknown slot: err %v, %d events; want a no-op", err, len(p.Journal().Events(addr.String())))
	}
	p.Apply(obsHTTP(at(0), "x"))
	p.Apply(failObs(at(1))) // pending since hour 1
	if err := p.Retire(addr, key, at(2)); err != nil {
		t.Fatal(err)
	}
	evs := p.Journal().Events(addr.String())
	if last := evs[len(evs)-1]; len(evs) != 3 || last.Kind != KindServiceRemoved || !last.Time.Equal(at(2)) {
		t.Fatalf("journal = %d events ending %s at %v; want found, pending, removed at %v", len(evs), last.Kind, last.Time, at(2))
	}
	if _, ok, _ := p.LastSeen(addr.String(), key); ok {
		t.Fatal("retired service still materialized")
	}
	if h, ok := r.HostAt(addr.String(), at(2)); ok && h.Service(key) != nil {
		t.Fatal("retired service survives replay")
	}
	if err := p.Apply(obsHTTP(at(3), "x")); err != nil {
		t.Fatalf("rediscovery after retirement: %v", err)
	}
	if _, ok, _ := p.LastSeen(addr.String(), key); !ok {
		t.Fatal("rediscovered service not materialized")
	}
}

// TestHostJSONRendersOncePerVersion: a point read renders a row version once
// and later reads of it return the stored bytes; an append makes the next
// read render the new version; a historical read renders uncached and leaves
// the newest rendering in place.
func TestHostJSONRendersOncePerVersion(t *testing.T) {
	p, r := newPipeline()
	p.Apply(obsHTTP(at(0), "v1"))
	p.Apply(obsHTTP(at(2), "v2"))
	id := addr.String()
	if _, _, ok := r.HostJSON(id, at(1)); !ok || r.rendered[id] != nil {
		t.Fatalf("a historical read before any current one: ok=%v, stored %v", ok, r.rendered[id])
	}
	first, etag, ok := r.HostJSON(id, at(3))
	if !ok || etag == "" {
		t.Fatalf("HostJSON: ok=%v etag=%q", ok, etag)
	}
	same := func(a, b []byte) bool { return &a[0] == &b[0] }
	if again, _, _ := r.HostJSON(id, at(3)); !same(first, again) {
		t.Fatal("a read of an unchanged row rendered again")
	}
	past, pastTag, _ := r.HostJSON(id, at(1))
	if same(past, first) || pastTag == etag || !bytes.Contains(past, []byte(`"v1"`)) {
		t.Fatalf("historical read served %s (ETag %s)", past, pastTag)
	}
	if again, _, _ := r.HostJSON(id, at(3)); !same(first, again) {
		t.Fatal("a historical read displaced the newest rendering")
	}
	p.Apply(obsHTTP(at(4), "v3"))
	next, nextTag, _ := r.HostJSON(id, at(5))
	if same(next, first) || nextTag == etag || !bytes.Contains(next, []byte(`"v3"`)) {
		t.Fatalf("read after an append served %s (ETag %s)", next, nextTag)
	}
	if again, _, _ := r.HostJSON(id, at(5)); !same(next, again) {
		t.Fatal("the new version was not kept")
	}
}
