package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"censysmap/internal/cqrs"
	"censysmap/internal/discovery"
	"censysmap/internal/durable"
	"censysmap/internal/entity"
	"censysmap/internal/shard"
)

// checkpointBytesPerServiceCeiling is ~20 % above what the universe below
// measures (239 B of bookkeeping per live service; with a per-slot table
// restated beside processor.slots it read 338).
const checkpointBytesPerServiceCeiling = 287

// refreshSet is what the refresh loop works from — every slot the write side
// materializes, with its refresh clock and, for UDP, the protocol a refresh
// probes with — times reduced to instants so a JSON round trip (which drops
// nothing but representation) compares equal.
func refreshSet(m *Map) map[slotKey][2]any {
	out := make(map[slotKey][2]any)
	m.processor.Walk(func(_ string, h *entity.Host) {
		for _, svc := range h.Services {
			udp := ""
			if svc.Transport == entity.UDP {
				udp = svc.Protocol
			}
			out[slotKey{h.IP, svc.Port, svc.Transport}] = [2]any{svc.LastSeen.UnixNano(), udp}
		}
	})
	return out
}

func servicesDigest(m *Map) string {
	h := sha256.New()
	for _, r := range m.CurrentServices(true) {
		fmt.Fprintf(h, "%v|%d|%s|%s|%v|%v|%s|%d|%v\n", r.Addr, r.Port, r.Transport, r.Protocol,
			r.Verified, r.TLS, r.Method, r.LastSeen.UnixNano(), r.Pending)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCheckpointHoldsNoDerivedState pins the ownership rule the checkpoint
// is built on: per-slot facts live in the journal-rebuilt write-side state
// (plus its liveness patch, processor.slots) and nowhere else, so the
// refresh set a resumed map works from is the live one — under any layout
// and around a quarantined partition — and the checkpoint stays small.
func TestCheckpointHoldsNoDerivedState(t *testing.T) {
	net, cfg := hostileUniverse()
	m, err := New(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(2 * 24 * time.Hour)
	optOut := netip.MustParsePrefix("10.0.2.0/26")
	if _, err := m.AddExclusion(optOut, "ops@example.net"); err != nil {
		t.Fatal(err)
	}
	m.Run(5 * 24 * time.Hour)
	m.Stop()

	live := refreshSet(m)
	udp := 0
	for key, v := range live {
		if optOut.Contains(key.addr) {
			t.Fatalf("opted-out slot %v still in the dataset", key)
		}
		if v[1] != "" {
			udp++
		}
	}
	if m.PseudoHosts() == 0 || len(m.HoneypotHosts()) == 0 || udp == 0 || m.Stats().Reinjected == 0 {
		t.Fatalf("universe too tame: %d pseudo hosts, %d honeypots, %d UDP slots, %d evictions",
			m.PseudoHosts(), len(m.HoneypotHosts()), udp, m.Stats().Reinjected)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("live map: %v", err)
	}
	wantDigest := servicesDigest(m)

	// (a) No per-slot section but processor.slots.
	blob, err := json.Marshal(m.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(blob, &sections); err != nil {
		t.Fatal(err)
	}
	var got []string
	for name := range sections {
		got = append(got, name)
	}
	sort.Strings(got)
	want := []string{"discovery", "exclusions", "farm_seen", "first_daily", "flagged", "found_per_host",
		"last_daily", "predictor", "processor", "seeded", "stats", "taken_at", "web_props"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint sections = %v, want %v", got, want)
	}

	// (d) And it stays small. The predictor's model and the web-property
	// records are sized by their own configs, not by the dataset; everything
	// else is bookkeeping that must not grow a second per-slot table.
	services := len(m.CurrentServices(true))
	bookkeeping := len(blob) - len(sections["predictor"]) - len(sections["web_props"])
	if per := bookkeeping / services; per > checkpointBytesPerServiceCeiling {
		t.Fatalf("checkpoint bookkeeping is %d B for %d live services = %d B/service, ceiling %d",
			bookkeeping, services, per, checkpointBytesPerServiceCeiling)
	} else {
		t.Logf("checkpoint %d B, bookkeeping %d B = %d B/service", len(blob), bookkeeping, per)
	}

	resume := func(blob []byte, d Durable, shards, workers int) *Map {
		t.Helper()
		var cp Checkpoint
		if err := json.Unmarshal(blob, &cp); err != nil {
			t.Fatal(err)
		}
		rcfg := cfg
		rcfg.Shards, rcfg.InterroWorkers = shards, workers
		r, err := Resume(rcfg, net, d, cp)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("resumed %dx%d: %v", shards, workers, err)
		}
		return r
	}
	// (b) The resumed refresh set equals the live one under either layout,
	// and so do the flagged hosts that gate it.
	for _, layout := range [][2]int{{1, 1}, {8, 4}} {
		r := resume(blob, m.Durable(), layout[0], layout[1])
		if got := refreshSet(r); !reflect.DeepEqual(got, live) {
			t.Fatalf("%v: resumed refresh set (%d slots) differs from live (%d slots)", layout, len(got), len(live))
		}
		if got := servicesDigest(r); got != wantDigest {
			t.Fatalf("%v: resumed dataset digest %s, live %s", layout, got[:12], wantDigest[:12])
		}
		if r.PseudoHosts() != m.PseudoHosts() || !reflect.DeepEqual(r.HoneypotHosts(), m.HoneypotHosts()) {
			t.Fatalf("%v: resumed with %d pseudo hosts and %d honeypots, live has %d and %d", layout,
				r.PseudoHosts(), len(r.HoneypotHosts()), m.PseudoHosts(), len(m.HoneypotHosts()))
		}
	}

	// One quarantined partition: its slots are fenced out of the refresh set,
	// every other partition's are untouched.
	dir := t.TempDir()
	if err := m.SaveDurable(dir, durable.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "stores", "journal", "p0003", "seg-000000.seg")); err != nil {
		t.Fatal(err)
	}
	res, err := durable.Load(dir, durable.LoadOptions{
		Rebuild: map[string]durable.SnapshotRebuilder{"journal": cqrs.RebuildSnapshotPayload},
	})
	if err != nil {
		t.Fatal(err)
	}
	if q := res.Report.Quarantined["journal"]; !reflect.DeepEqual(q, []int{3}) {
		t.Fatalf("quarantined = %v, want [3]", q)
	}
	d := m.Durable()
	d.Journal, d.WebJournal = res.Stores["journal"], res.Stores["webjournal"]
	d.Quarantined = []int{3}
	degraded := resume(res.Checkpoint, d, 8, 4)
	fenced := 0
	for key := range live {
		if shard.Of(key.addr.String(), 8) == 3 {
			delete(live, key)
			fenced++
		}
	}
	if fenced == 0 {
		t.Fatal("partition 3 held no slot; quarantine case vacuous")
	}
	if got := refreshSet(degraded); !reflect.DeepEqual(got, live) {
		t.Fatalf("degraded refresh set (%d slots) differs from live minus partition 3 (%d slots)", len(got), len(live))
	}
}

// TestParentCheckpointWithRetriesResumes: checkpoints written while failed
// interrogations could wait out a backoff carry a `retries` section. A map
// resumed from one ignores it and comes back as if it were absent.
func TestParentCheckpointWithRetriesResumes(t *testing.T) {
	net, _ := testUniverse(t)
	m := testMap(t, net)
	m.Run(26 * time.Hour)
	m.Stop()
	blob, err := json.Marshal(m.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}

	var sections map[string]json.RawMessage
	if err := json.Unmarshal(blob, &sections); err != nil {
		t.Fatal(err)
	}
	rec := m.CurrentServices(false)[0]
	type retryState struct { // the section's entries, as they were written
		Due     time.Time           `json:"due"`
		Kind    int                 `json:"kind"`
		Attempt int                 `json:"attempt"`
		Cand    discovery.Candidate `json:"cand"`
	}
	retries, err := json.Marshal([]retryState{{Due: m.clock.Now().Add(time.Hour), Kind: int(taskRefresh),
		Attempt: 1, Cand: discovery.Candidate{Addr: rec.Addr, Port: rec.Port, Transport: rec.Transport,
			Method: entity.DetectRefresh}}})
	if err != nil {
		t.Fatal(err)
	}
	sections["retries"] = retries
	parent, err := json.Marshal(sections)
	if err != nil {
		t.Fatal(err)
	}

	var cp Checkpoint
	if err := json.Unmarshal(parent, &cp); err != nil {
		t.Fatal(err)
	}
	r, err := Resume(m.cfg, net, m.Durable(), cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(r.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(blob) {
		t.Fatal("a resume from the checkpoint with a retries section checkpoints differently")
	}
}

// A re-injection is interrogated without a dataset check, so without the
// write gate it would probe — and re-add — a host flagged since the eviction.
func TestReinjectionIntoFlaggedHostIsGated(t *testing.T) {
	net, _ := testUniverse(t)
	m := testMap(t, net)
	m.Run(26 * time.Hour)
	m.Stop()

	recs := m.CurrentServices(false)
	host := recs[0].Addr
	now := m.clock.Now()
	if !m.suppress(host, flagHoneypot, now) {
		t.Fatal("host already flagged")
	}
	before := m.Stats()
	tasks := 0
	for _, r := range recs {
		if r.Addr == host && r.Transport == entity.TCP {
			tasks++
			m.enqueue(pendingTask{kind: taskDirect, cand: discovery.Candidate{Addr: host, Port: r.Port,
				Transport: r.Transport, Method: entity.DetectReinjected, PoP: m.pops[0].Name, Time: now}})
		}
	}
	m.runBatch(now, "reinject")
	m.processor.Drain()
	after := m.Stats()
	if tasks == 0 || after.PseudoFiltered-before.PseudoFiltered != uint64(tasks) || after.Interrogations != before.Interrogations {
		t.Fatalf("%d re-injections into a flagged host: %d gated, %d interrogated", tasks,
			after.PseudoFiltered-before.PseudoFiltered, after.Interrogations-before.Interrogations)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
