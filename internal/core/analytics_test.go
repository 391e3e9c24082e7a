package core

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"censysmap/internal/entity"
	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
	"censysmap/internal/snapshot"
)

const (
	analyticsDays   = 12
	analyticsOptOut = 3 // the day an opt-out lands, between two ticks at noon
)

var analyticsOptOutPrefix = netip.MustParsePrefix("10.0.2.0/26")

// hostileUniverse is a /22 that exercises every way out of the dataset —
// churn fast enough to evict, pseudo-hosts, a honeypot farm — and the
// pipeline configuration that flags them.
func hostileUniverse() (*simnet.Internet, Config) {
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

	cfg := DefaultConfig()
	cfg.CloudBlocks = 1
	cfg.BackgroundPortsPerIPPerDay = 400
	cfg.HoneypotUniformityThreshold = 8
	return simnet.New(ncfg, simclock.New()), cfg
}

// copiedRows builds the rows of the map as it stands, the way snapshotDaily
// did when a daily snapshot was a stored copy: every materialized host with
// services, cloned off the write side, enriched and flattened.
func copiedRows(m *Map) []snapshot.Row {
	var ids []string
	m.processor.Walk(func(id string, _ *entity.Host) { ids = append(ids, id) })
	sort.Strings(ids)
	var hosts []*entity.Host
	for _, id := range ids {
		if h := m.processor.CurrentState(id); h != nil && len(h.Services) > 0 {
			m.enricher.Enrich(h)
			hosts = append(hosts, h)
		}
	}
	return snapshot.RowsFromHosts(m.clock.Now(), hosts)
}

// analyticsRun drives a churning, hostile /22 for analyticsDays under one
// layout, copying the rows at every day boundary, and returns the final map
// with the copies by date. With killDay > 0 the map is killed at that day's
// boundary and resumed from its checkpoint (through JSON) and Durable.
func analyticsRun(t *testing.T, shards, workers, killDay int) (*Map, map[time.Time][]snapshot.Row) {
	t.Helper()
	net, cfg := hostileUniverse()
	cfg.Shards, cfg.InterroWorkers = shards, workers
	m, err := New(cfg, net)
	if err != nil {
		t.Fatal(err)
	}

	copies := make(map[time.Time][]snapshot.Row)
	fingerprints := make(map[string]bool)
	pendingCerts := 0
	for day := 1; day <= analyticsDays; day++ {
		runFor(m, 12*time.Hour)
		if day == analyticsOptOut {
			if _, err := m.AddExclusion(analyticsOptOutPrefix, "ops@example.net"); err != nil {
				t.Fatal(err)
			}
		}
		runFor(m, 12*time.Hour)
		rows := copiedRows(m)
		copies[m.clock.Now()] = rows
		for _, r := range rows {
			if r.CertSHA256 != "" {
				fingerprints[r.CertSHA256] = true
			}
		}
		pendingCerts += checkCertPivot(t, m, fingerprints)
		if day != killDay {
			continue
		}

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
		r, err := Resume(cfg, net, d, cp)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("resumed on day %d: %v", day, err)
		}
		pendingCerts += checkCertPivot(t, r, fingerprints)
		m = r
		m.Start()
	}
	m.Stop()
	if len(fingerprints) < 2 || pendingCerts == 0 {
		t.Fatalf("%d certificates seen, %d pending services presenting one: the pivot goes unexercised",
			len(fingerprints), pendingCerts)
	}
	return m, copies
}

// checkCertPivot is the certificate pivot's differential: for every
// fingerprint seen, Map.CertHosts (the search index's postings) must equal a
// naive walk of the processor's active services. It returns how many pending
// services present a seen fingerprint — the ones the pivot must leave out.
func checkCertPivot(t *testing.T, m *Map, fingerprints map[string]bool) int {
	t.Helper()
	want := make(map[string][]string)
	pending := 0
	m.processor.Walk(func(id string, h *entity.Host) {
		for key, svc := range h.Services {
			switch {
			case !fingerprints[svc.CertSHA256]:
			case svc.PendingRemovalSince != nil:
				pending++
			default:
				want[svc.CertSHA256] = append(want[svc.CertSHA256], id+" "+key)
			}
		}
	})
	for fp := range fingerprints {
		sort.Strings(want[fp])
		if got := m.CertHosts(fp); !reflect.DeepEqual(got, want[fp]) {
			t.Fatalf("%v: CertHosts(%.12s) = %v, active services present it on %v", m.clock.Now(), fp, got, want[fp])
		}
	}
	return pending
}

// TestAnalyticsDerivedEqualsCopied is the differential that lets a daily
// snapshot be a date: for every retained date, the rows replayed from the
// journal equal the rows a copy taken at that day's tick held — through
// churn, evictions, flagged hosts and an opt-out, on an uninterrupted map and
// on one killed and resumed mid-run, under two layouts. The run also holds
// the certificate pivot to its naive walk every day and after the resume
// (checkCertPivot).
func TestAnalyticsDerivedEqualsCopied(t *testing.T) {
	for _, layout := range [][2]int{{1, 1}, {8, 4}} {
		for _, killDay := range []int{0, 5} {
			t.Run(fmt.Sprintf("%dx%d/kill=%d", layout[0], layout[1], killDay), func(t *testing.T) {
				m, copies := analyticsRun(t, layout[0], layout[1], killDay)
				st := m.Stats()
				if st.Reinjected == 0 || m.PseudoHosts() == 0 || len(m.HoneypotHosts()) == 0 {
					t.Fatalf("universe too tame: %d evictions, %d pseudo hosts, %d honeypots",
						st.Reinjected, m.PseudoHosts(), len(m.HoneypotHosts()))
				}
				dates := m.Analytics().Dates()
				if len(dates) != analyticsDays {
					t.Fatalf("%d retained dates after %d days", len(dates), analyticsDays)
				}
				pending, optedOut := 0, 0
				for i, date := range dates {
					want, ok := copies[date]
					if !ok {
						t.Fatalf("retained date %v is no day boundary of the run", date)
					}
					got, _ := m.Analytics().At(date)
					if !got.Date.Equal(date) || !reflect.DeepEqual(got.Rows, want) {
						t.Fatalf("day %d (%v): %d derived rows differ from the %d copied at the tick",
							i+1, date, len(got.Rows), len(want))
					}
					for _, r := range want {
						if !r.PendingRemovalSince.IsZero() {
							pending++
						}
						if i+1 >= analyticsOptOut && analyticsOptOutPrefix.Contains(netip.MustParseAddr(r.IP)) {
							optedOut++
						}
					}
				}
				if len(copies[dates[0]]) == 0 || pending == 0 || optedOut != 0 {
					t.Fatalf("copies hold %d rows on day 1, %d pending rows, %d opted-out rows",
						len(copies[dates[0]]), pending, optedOut)
				}
			})
		}
	}
}

// An opt-out lands between ticks and is journaled at the last tick's instant,
// so the snapshot of that instant — derived, not copied — honours it.
func TestOptOutReachesTheLastSnapshot(t *testing.T) {
	net, _ := testUniverse(t)
	m := testMap(t, net)
	runFor(m, 24*time.Hour)
	m.Stop()
	today, ok := m.Analytics().At(m.clock.Now())
	if !ok || !today.Date.Equal(m.clock.Now()) || len(today.Rows) == 0 {
		t.Fatalf("snapshot at the day boundary: %d rows, found %v", len(today.Rows), ok)
	}
	victim := netip.MustParseAddr(today.Rows[0].IP)
	if _, err := m.AddExclusion(netip.PrefixFrom(victim, 32), "noc@example.net"); err != nil {
		t.Fatal(err)
	}
	for _, r := range m.Analytics().Query(today.Date, func(r snapshot.Row) bool { return r.IP == victim.String() }) {
		t.Errorf("snapshot of %v still exports %s:%d after the opt-out", today.Date, r.IP, r.Port)
	}
}
