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
	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
)

// checkpointBytesPerServiceCeiling is ~20 % above what the universe below
// measures (239 B of bookkeeping per live service; with the parent's known
// table restated beside processor.slots it reads 338).
const checkpointBytesPerServiceCeiling = 287

// flatKnown merges every shard's known set, with times reduced to instants so
// a JSON round trip (which drops nothing but representation) compares equal.
func flatKnown(m *Map) map[slotKey][2]any {
	out := make(map[slotKey][2]any)
	for _, s := range m.shards {
		s.mu.Lock()
		for key, ks := range s.known {
			out[key] = [2]any{ks.last.UnixNano(), ks.udp}
		}
		s.mu.Unlock()
	}
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
// refresh set is re-derived on resume — under any layout, from a parent-era
// blob, and around a quarantined partition — and the checkpoint stays small.
func TestCheckpointHoldsNoDerivedState(t *testing.T) {
	ncfg := simnet.DefaultConfig()
	ncfg.Prefix = netip.MustParsePrefix("10.0.0.0/22")
	ncfg.HostDensity = 0.3
	ncfg.MeanServices = 3
	ncfg.PseudoHostRate = 0.02
	ncfg.CloudBlocks = 1
	ncfg.ChurnFraction = 0.8 // evictions: liveness must leave with the record
	ncfg.WebProperties = 10
	ncfg.BaseLoss = 0
	ncfg.OutageRate = 0
	ncfg.GeoblockRate = 0
	ncfg.Adversary = simnet.AdversaryConfig{Seed: 9, HoneypotFarms: 1}
	net := simnet.New(ncfg, simclock.New())

	cfg := DefaultConfig()
	cfg.CloudBlocks = 1
	cfg.BackgroundPortsPerIPPerDay = 400
	cfg.HoneypotUniformityThreshold = 8
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

	live := flatKnown(m)
	udp := 0
	for key, v := range live {
		if optOut.Contains(key.addr) {
			t.Fatalf("opted-out slot %v still known", key)
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
	want := []string{"discovery", "exclusions", "farm_seen", "found_per_host", "honeypot_hosts",
		"last_daily", "predictor", "processor", "pseudo_hosts", "seeded", "stats", "taken_at", "web_props"}
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

	// (c) A parent-format blob restates known; the section is ignored and
	// re-derived.
	var parent map[string]any
	if err := json.Unmarshal(blob, &parent); err != nil {
		t.Fatal(err)
	}
	var known []map[string]any
	for key, v := range live {
		known = append(known, map[string]any{"addr": key.addr, "port": key.port, "transport": key.transport,
			"last": time.Unix(0, v[0].(int64)).UTC(), "udp_protocol": v[1]})
	}
	parent["known"] = known
	parentBlob, err := json.Marshal(parent)
	if err != nil {
		t.Fatal(err)
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
	// (b) The derived set equals the live one under either layout.
	for _, tc := range []struct {
		name            string
		blob            []byte
		shards, workers int
	}{
		{"1x1", blob, 1, 1},
		{"8x4", blob, 8, 4},
		{"parent blob", parentBlob, 8, 4},
	} {
		r := resume(tc.blob, m.Durable(), tc.shards, tc.workers)
		if got := flatKnown(r); !reflect.DeepEqual(got, live) {
			t.Fatalf("%s: resumed known (%d slots) differs from live (%d slots)", tc.name, len(got), len(live))
		}
		if got := servicesDigest(r); got != wantDigest {
			t.Fatalf("%s: resumed dataset digest %s, live %s", tc.name, got[:12], wantDigest[:12])
		}
	}

	// One quarantined partition: its slots are fenced out of the derived set,
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
		t.Fatal("partition 3 held no known slot; quarantine case vacuous")
	}
	if got := flatKnown(degraded); !reflect.DeepEqual(got, live) {
		t.Fatalf("degraded known (%d slots) differs from live minus partition 3 (%d slots)", len(got), len(live))
	}
}

// A re-injection is interrogated unconditionally, so it can succeed against a
// host flagged since the eviction; the slot must stay out of the refresh set
// (a resumed map would not re-derive it).
func TestReinjectionIntoSuppressedHostStaysOutOfKnown(t *testing.T) {
	net, _ := testUniverse(t)
	m := testMap(t, net)
	m.Run(26 * time.Hour)
	m.Stop()

	recs := m.CurrentServices(false)
	host := recs[0].Addr
	s := m.shardFor(host)
	if !m.suppress(s, s.honeypots, host) {
		t.Fatal("host already flagged")
	}
	before := s.foundPerHost[host]
	now := m.clock.Now()
	for _, r := range recs {
		if r.Addr == host && r.Transport == entity.TCP {
			m.enqueue(pendingTask{kind: taskDirect, cand: discovery.Candidate{Addr: host, Port: r.Port,
				Transport: r.Transport, Method: entity.DetectReinjected, PoP: m.pops[0].Name, Time: now}})
		}
	}
	m.runBatch(now, "reinject")
	m.processor.Drain()
	if s.foundPerHost[host] == before {
		t.Fatal("no re-injection succeeded; the case is vacuous")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
