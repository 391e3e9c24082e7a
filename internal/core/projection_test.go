package core

import (
	"bytes"
	"cmp"
	"encoding/json"
	"net/netip"
	"slices"
	"testing"
	"time"

	"censysmap/internal/cqrs"
	"censysmap/internal/entity"
	"censysmap/internal/search"
	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
)

// churnedRun is a service-rich, fast-churning /24 (~200 hosts, ~1,300
// services) whose pipeline evicts after 8 h, so a few days see every event
// kind: finds, changes, pending services, restorations and removals.
func churnedRun(t *testing.T, shards, workers int) (*Map, *simclock.Sim, Config) {
	t.Helper()
	sc := simnet.DefaultConfig()
	sc.Prefix = netip.MustParsePrefix("10.0.0.0/24")
	sc.HostDensity = 0.9
	sc.MeanServices = 6
	sc.CloudBlocks = 1
	sc.ChurnFraction = 0.9
	sc.WebProperties = 10
	clk := simclock.New()
	cfg := DefaultConfig()
	cfg.CloudBlocks = 1
	cfg.EvictAfter = 8 * time.Hour
	cfg.Shards, cfg.InterroWorkers = shards, workers
	m, err := New(cfg, simnet.New(sc, clk))
	if err != nil {
		t.Fatal(err)
	}
	return m, clk, cfg
}

// killAndResume checkpoints m at the tick boundary, stops it and resumes a
// Map from its durable stores and the decoded checkpoint.
func killAndResume(t *testing.T, m *Map, cfg Config) *Map {
	t.Helper()
	blob, err := json.Marshal(m.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	d := m.Durable()
	m.Stop()
	var cp Checkpoint
	if err := json.Unmarshal(blob, &cp); err != nil {
		t.Fatal(err)
	}
	r, err := Resume(cfg, m.net, d, cp)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// subscribeOracle feeds a second index from m's event stream the way the
// read side once did: every drained event clones the whole host, enriches
// all of it and re-upserts it. It is the projection's oracle.
func subscribeOracle(m *Map, oracle *search.Index) {
	m.processor.Subscribe(func(ev cqrs.OutEvent) {
		h := m.processor.CurrentState(ev.Entity)
		if h == nil || len(h.Services) == 0 {
			oracle.Remove(ev.Entity)
			return
		}
		m.enricher.Enrich(h)
		oracle.Upsert(h)
	})
}

// oracleQueries reach every field group of a document: identity, derived
// context and services.
var oracleQueries = []string{
	"location.country: US", "as.number: [0 TO 99999]", "labels: web", "labels: ics",
	"labels: remote-access", "software.product: nginx", "software.vendor: openbsd",
	"vulns: CVE-2018-15473", "services.protocol: HTTP", "services.port: [1 TO 1024]",
	"services.transport: udp", "services.tls: true", "services.http.server: nginx*",
	"nginx", "ssh",
}

// checkProjection requires every document of m's index to render the
// oracle's bytes, both indexes to hold the same documents and answer the
// same queries, and both to pass Verify.
func checkProjection(t *testing.T, m *Map, oracle *search.Index, when string) {
	t.Helper()
	var ids []string
	m.processor.Walk(func(id string, h *entity.Host) {
		if len(h.Services) > 0 {
			ids = append(ids, id)
		}
	})
	slices.Sort(ids)
	if got, want := m.index.Len(), oracle.Len(); got != want || got != len(ids) {
		t.Fatalf("%s: index holds %d documents, oracle %d, write side %d hosts", when, got, want, len(ids))
	}
	got, err := m.index.HostsJSON(ids)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.HostsJSON(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: %s renders\n %s\nthe oracle\n %s", when, ids[i], got[i], want[i])
		}
	}
	for _, q := range oracleQueries {
		g, err := m.index.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		w, _ := oracle.Search(q)
		if !slices.Equal(g, w) {
			t.Fatalf("%s: %q finds %v, the oracle %v", when, q, g, w)
		}
	}
	if err := m.index.Verify(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if err := oracle.Verify(); err != nil {
		t.Fatalf("%s: oracle: %v", when, err)
	}
}

// TestProjectionMatchesOracle: through a churned run — finds, changes,
// pending services, evictions, restorations — and a kill/resume, the
// projected index renders every document byte for byte as the whole-host
// oracle does after every drain, under the serial and the sharded layout.
func TestProjectionMatchesOracle(t *testing.T) {
	for _, layout := range [][2]int{{1, 1}, {8, 4}} {
		m, clk, cfg := churnedRun(t, layout[0], layout[1])
		oracle := search.NewPartitioned(cfg.Shards)
		subscribeOracle(m, oracle)
		kinds := map[string]int{}
		count := func(ev cqrs.OutEvent) { kinds[ev.Kind]++ }
		m.processor.Subscribe(count)
		m.Start()
		checkProjection(t, m, oracle, "after the seed scan")
		const ticks, killAt = 4 * 24, 2*24 + 7
		for tick := 1; tick <= ticks; tick++ {
			clk.Advance(cfg.Tick)
			checkProjection(t, m, oracle, "tick "+itoa(tick))
			if tick == killAt {
				m = killAndResume(t, m, cfg)
				subscribeOracle(m, oracle)
				m.processor.Subscribe(count)
				m.Start()
			}
		}
		for _, kind := range []string{cqrs.KindServiceFound, cqrs.KindServiceChanged, cqrs.KindServicePending,
			cqrs.KindServiceRestored, cqrs.KindServiceRemoved} {
			if kinds[kind] == 0 {
				t.Fatalf("%v: no %s event in %v", layout, kind, kinds)
			}
		}
	}
}

// walkDue is the refresh set as a walk over every record finds it: the
// slots last seen at or before cutoff, in canonical order.
func walkDue(m *Map, cutoff time.Time) []cqrs.DueSlot {
	var out []cqrs.DueSlot
	m.processor.Walk(func(id string, h *entity.Host) {
		for _, svc := range h.Services {
			if !svc.LastSeen.After(cutoff) {
				out = append(out, cqrs.DueSlot{Addr: h.IP, ID: id, Key: svc.Key(), Protocol: svc.Protocol})
			}
		}
	})
	slices.SortFunc(out, func(a, b cqrs.DueSlot) int {
		return cmp.Or(a.Addr.Compare(b.Addr), cmp.Compare(a.Key.Port, b.Key.Port),
			cmp.Compare(a.Key.Transport, b.Key.Transport))
	})
	return out
}

// TestDueCalendarMatchesWalk: before every tick, including the first after
// a kill/resume, the calendar names exactly the slots a walk over every
// record finds due for that tick, in the same order — failing slots whose
// LastSeen stands still included, until they are evicted.
func TestDueCalendarMatchesWalk(t *testing.T) {
	for _, layout := range [][2]int{{1, 1}, {8, 4}} {
		m, clk, cfg := churnedRun(t, layout[0], layout[1])
		m.Start()
		const ticks, killAt = 4 * 24, 2*24 + 5
		failing := 0
		for tick := 1; tick <= ticks; tick++ {
			cutoff := clk.Now().Add(cfg.Tick - refreshEvery)
			want := walkDue(m, cutoff)
			var got []cqrs.DueSlot
			m.processor.Due(cutoff, func(d cqrs.DueSlot) { got = append(got, d) })
			if !slices.Equal(got, want) {
				t.Fatalf("%v tick %d: calendar names %d slots, the walk %d:\n %v\n %v",
					layout, tick, len(got), len(want), got, want)
			}
			m.processor.Walk(func(_ string, h *entity.Host) {
				for _, svc := range h.Services {
					if svc.PendingRemovalSince != nil && !svc.LastSeen.After(cutoff) {
						failing++
					}
				}
			})
			clk.Advance(cfg.Tick)
			if tick == killAt {
				m = killAndResume(t, m, cfg)
				m.Start()
			}
		}
		if failing == 0 {
			t.Fatalf("%v: no failing slot was ever due; the test exercises no eviction window", layout)
		}
	}
}

// TestResumeTwiceFromOneCheckpoint: the predictor adopts the model a
// checkpoint decodes to instead of copying it, so a caller resuming two Maps
// from one decoded checkpoint hands each its own copy of the model. Two
// twins killed at the same tick and resumed that way from one decode run on
// to the same dataset and model as a third twin that was never killed.
func TestResumeTwiceFromOneCheckpoint(t *testing.T) {
	const before, after = 2 * 24, 2 * 24
	a, clkA, cfg := churnedRun(t, 8, 4)
	b, clkB, _ := churnedRun(t, 8, 4)
	c, clkC, _ := churnedRun(t, 8, 4)
	for _, run := range []struct {
		m   *Map
		clk *simclock.Sim
	}{{a, clkA}, {b, clkB}, {c, clkC}} {
		run.m.Start()
		run.clk.Advance(before * cfg.Tick)
	}
	blob, err := json.Marshal(a.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(blob, &cp); err != nil {
		t.Fatal(err)
	}
	model, err := json.Marshal(cp.Predictor)
	if err != nil {
		t.Fatal(err)
	}
	cpB := cp
	if err := json.Unmarshal(model, &cpB.Predictor); err != nil {
		t.Fatal(err)
	}
	resume := func(m *Map, cp Checkpoint) *Map {
		d := m.Durable()
		m.Stop()
		r, err := Resume(cfg, m.net, d, cp)
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		return r
	}
	a, b = resume(a, cp), resume(b, cpB)
	for _, clk := range []*simclock.Sim{clkA, clkB, clkC} {
		clk.Advance(after * cfg.Tick)
	}
	want := servicesDigest(c)
	wantModel, _ := json.Marshal(c.predictor.State())
	for name, m := range map[string]*Map{"first": a, "second": b} {
		if got := servicesDigest(m); got != want {
			t.Fatalf("%s resume: dataset digest %s, the uninterrupted run's %s", name, got[:12], want[:12])
		}
		if got, _ := json.Marshal(m.predictor.State()); !bytes.Equal(got, wantModel) {
			t.Fatalf("%s resume: the predictor's model differs from the uninterrupted run's", name)
		}
	}
}
