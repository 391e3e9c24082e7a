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
	"censysmap/internal/draw"
	"censysmap/internal/durable"
	"censysmap/internal/entity"
	"censysmap/internal/shard"
)

// checkpointBytesPerServiceCeiling is ~20 % above what the universe below
// measures (57 B of bookkeeping per live service with processor.slots a
// binary section; as a JSON array it read 115, with the pseudo filter's
// per-host observation counts as well 239, and with a per-slot table restated
// beside processor.slots 338).
const checkpointBytesPerServiceCeiling = 68

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
	runFor(m, 2*24*time.Hour)
	optOut := netip.MustParsePrefix("10.0.2.0/26")
	if _, err := m.AddExclusion(optOut, "ops@example.net"); err != nil {
		t.Fatal(err)
	}
	runFor(m, 5*24*time.Hour)
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
	want := []string{"discovery", "exclusions", "farm_groups", "first_daily", "flagged",
		"last_daily", "predictor", "processor", "seeded", "stats", "taken_at", "web_props"}
	if got := sectionNames(t, blob); !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint sections = %v, want %v", got, want)
	}
	// (c) Nor a count of the predictor's host ports (its /24 tables), a copy
	// of the exclusion list, or the web journal's latest events.
	want = []string{"cooc", "cursor", "evicted", "expand_cursor", "full_cooc", "full_hosts",
		"full_port_hosts", "host_ports", "suggested"}
	if got := sectionNames(t, sections["predictor"]); !reflect.DeepEqual(got, want) {
		t.Fatalf("predictor subsections = %v, want %v", got, want)
	}
	if got, want := sectionNames(t, sections["web_props"]), []string{"ct_cursor", "names"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("web_props subsections = %v, want %v", got, want)
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
	if err := os.Remove(filepath.Join(dir, "stores", "journal", "p0003", "records.seg")); err != nil {
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
	runFor(m, 26*time.Hour)
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

// sectionNames lists a JSON object's keys, sorted.
func sectionNames(t *testing.T, raw []byte) []string {
	t.Helper()
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(raw, &sections); err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range sections {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// withDerivedSections returns m's checkpoint blob in the older shape: the
// predictor section also carries net24_ports and the topology tree (its /24
// densities and its copy of the exclusion list), web_props the current
// properties and the scan queue, found_per_host the pseudo filter's old
// per-host count of successful observations (here, each host's services),
// and farm_seen the honeypot detector's old evidence accumulator (here, the
// hosts of each group the write side holds).
func withDerivedSections(t *testing.T, m *Map, blob []byte) []byte {
	t.Helper()
	var cp Checkpoint
	if err := json.Unmarshal(blob, &cp); err != nil {
		t.Fatal(err)
	}
	type prefixDensity struct {
		Base     netip.Addr `json:"base"`
		Hosts    int        `json:"hosts"`
		Services int        `json:"services"`
	}
	net24Ports := map[netip.Addr]map[uint16]int{}
	leaves := map[netip.Addr]*prefixDensity{}
	for addr, ports := range cp.Predictor.HostPorts {
		n24 := draw.Net24(addr)
		if leaves[n24] == nil {
			leaves[n24] = &prefixDensity{Base: n24}
		}
		leaves[n24].Hosts++
		leaves[n24].Services += len(ports)
		for p := range ports {
			if net24Ports[n24] == nil {
				net24Ports[n24] = map[uint16]int{}
			}
			net24Ports[n24][p]++
		}
	}
	var prefixes []prefixDensity
	for _, d := range leaves {
		prefixes = append(prefixes, *d)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i].Base.Less(prefixes[j].Base) })
	excluded := append([]netip.Prefix(nil), m.cfg.Excluded...)
	for _, ex := range cp.Exclusions {
		excluded = append(excluded, ex.Prefix.Masked())
	}
	var queue []string
	for _, rec := range cp.WebProps.Names {
		queue = append(queue, rec.Name)
	}
	type hostCount struct { // the section's entries, as they were written
		Addr  netip.Addr `json:"addr"`
		Count int        `json:"count"`
	}
	var found []hostCount
	for addr, ports := range cp.Predictor.HostPorts {
		found = append(found, hostCount{addr, len(ports)})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].Addr.Less(found[j].Addr) })
	type farmSeen struct { // the section's entries, as they were written
		Net   netip.Addr   `json:"net"`
		Port  uint16       `json:"port"`
		FP    uint64       `json:"fp"`
		Addrs []netip.Addr `json:"addrs"`
	}
	groups := map[FarmGroup]*farmSeen{}
	var seen []*farmSeen
	m.processor.Walk(func(_ string, h *entity.Host) {
		for _, svc := range h.Services {
			if g, ok := icsGroup(h.IP, svc); ok {
				if groups[g] == nil {
					groups[g] = &farmSeen{Net: g.Net, Port: g.Port, FP: g.FP}
					seen = append(seen, groups[g])
				}
				groups[g].Addrs = append(groups[g].Addrs, h.IP)
			}
		}
	})

	var sections, predictor, webProps map[string]json.RawMessage
	if err := json.Unmarshal(blob, &sections); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(sections["predictor"], &predictor); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(sections["web_props"], &webProps); err != nil {
		t.Fatal(err)
	}
	set := func(section map[string]json.RawMessage, key string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		section[key] = b
	}
	set(predictor, "net24_ports", net24Ports)
	set(predictor, "topology", map[string]any{"prefixes": prefixes, "excluded": excluded})
	set(webProps, "props", m.WebProperties().All())
	set(webProps, "queue", queue)
	set(sections, "predictor", predictor)
	set(sections, "web_props", webProps)
	set(sections, "found_per_host", found)
	set(sections, "farm_seen", seen)
	old, err := json.Marshal(sections)
	if err != nil {
		t.Fatal(err)
	}
	return old
}

// TestParentCheckpointWithDerivedSectionsResumes: checkpoints of the older
// shape also carry the predictor's /24 tables and topology tree and the web
// properties and scan queue, all derivable from what the checkpoint and the
// web journal keep, the pseudo filter's per-host observation counts, which
// the filter no longer reads, and the honeypot detector's accumulated
// evidence, which it no longer keeps. A map resumed from one ignores them
// and runs on exactly as the uninterrupted map does.
func TestParentCheckpointWithDerivedSectionsResumes(t *testing.T) {
	const before, after = 5 * 24 * time.Hour, 2 * 24 * time.Hour
	optOut := netip.MustParsePrefix("10.0.2.0/26")
	start := func() (*Map, Config) {
		net, cfg := hostileUniverse()
		m, err := New(cfg, net)
		if err != nil {
			t.Fatal(err)
		}
		runFor(m, 24*time.Hour)
		if _, err := m.AddExclusion(optOut, "ops@example.net"); err != nil {
			t.Fatal(err)
		}
		runFor(m, before-24*time.Hour)
		return m, cfg
	}
	base, _ := start()
	runFor(base, after)
	base.Stop()

	m, cfg := start()
	m.Stop()
	blob, err := json.Marshal(m.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if m.predictor.ModelStats().PendingReinjections == 0 || len(m.WebProperties().All()) == 0 {
		t.Fatalf("vacuous: %d evictions queued, %d web properties",
			m.predictor.ModelStats().PendingReinjections, len(m.WebProperties().All()))
	}
	old := withDerivedSections(t, m, blob)
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(old, &sections); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"found_per_host", "farm_seen"} {
		if len(sections[key]) < 10 {
			t.Fatalf("old-shaped blob's %s is empty", key)
		}
	}
	for _, key := range [][2]string{{"predictor", "net24_ports"}, {"predictor", "topology"},
		{"web_props", "props"}, {"web_props", "queue"}} {
		var section map[string]json.RawMessage
		if err := json.Unmarshal(sections[key[0]], &section); err != nil {
			t.Fatal(err)
		}
		if len(section[key[1]]) < 10 {
			t.Fatalf("old-shaped blob's %s.%s is empty", key[0], key[1])
		}
	}

	var cp Checkpoint
	if err := json.Unmarshal(old, &cp); err != nil {
		t.Fatal(err)
	}
	r, err := Resume(cfg, m.net, m.Durable(), cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if again, err := json.Marshal(r.Checkpoint()); err != nil || string(again) != string(blob) {
		t.Fatalf("a resume from the old-shaped blob checkpoints differently (%v)", err)
	}
	runFor(r, after)
	r.Stop()
	if got, want := servicesDigest(r), servicesDigest(base); got != want {
		t.Fatalf("resumed dataset digest %.12s, uninterrupted %.12s", got, want)
	}
	for what, pair := range map[string][2]any{
		"predictor state": {r.predictor.State(), base.predictor.State()},
		"web properties":  {r.WebProperties().All(), base.WebProperties().All()},
	} {
		got, err := json.Marshal(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("resumed %s differs from the uninterrupted run's", what)
		}
	}
}

// A re-injection is interrogated without a dataset check, so without the
// write gate it would probe — and re-add — a host flagged since the eviction.
// Each gated task is counted once, against the filter that flagged the host.
func TestReinjectionIntoFlaggedHostIsGated(t *testing.T) {
	net, _ := testUniverse(t)
	m := testMap(t, net)
	runFor(m, 26*time.Hour)
	m.Stop()

	recs := m.CurrentServices(false)
	hosts := []netip.Addr{recs[0].Addr}
	for _, r := range recs {
		if r.Addr != hosts[0] {
			hosts = append(hosts, r.Addr)
			break
		}
	}
	for i, c := range []struct {
		why   flagReason
		gated func(RunStats) uint64
	}{
		{flagHoneypot, func(s RunStats) uint64 { return s.HoneypotGated }},
		{flagPseudo, func(s RunStats) uint64 { return s.PseudoFiltered }},
	} {
		host, now := hosts[i], m.clock.Now()
		if !m.suppress(host, c.why, now) {
			t.Fatalf("%s: host already flagged", c.why)
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
		gated := c.gated(after) - c.gated(before)
		other := after.PseudoFiltered + after.HoneypotGated - before.PseudoFiltered - before.HoneypotGated - gated
		if tasks == 0 || gated != uint64(tasks) || other != 0 || after.Interrogations != before.Interrogations {
			t.Fatalf("%s: %d re-injections into a flagged host: %d gated as %s, %d under the other filter, %d interrogated",
				c.why, tasks, gated, c.why, other, after.Interrogations-before.Interrogations)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
