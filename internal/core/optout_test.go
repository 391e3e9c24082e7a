package core

import (
	"net/netip"
	"testing"
	"time"

	"censysmap/internal/cqrs"
	"censysmap/internal/snapshot"
)

func TestExclusionStopsScanningAndPurgesData(t *testing.T) {
	net, _ := testUniverse(t)
	m := testMap(t, net)
	m.Run(26 * time.Hour)

	// Pick a /24 with mapped services.
	var victim netip.Prefix
	for _, r := range m.CurrentServices(false) {
		b := r.Addr.As4()
		b[3] = 0
		victim = netip.PrefixFrom(netip.AddrFrom4(b), 24)
		break
	}
	if !victim.IsValid() {
		t.Fatal("no services to exclude")
	}
	before := countIn(m, victim)
	if before == 0 {
		t.Fatal("no services in victim prefix")
	}

	ex, err := m.AddExclusion(victim, "noc@example.net")
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Expires.After(ex.Since.Add(360 * 24 * time.Hour)) {
		t.Fatalf("exclusion TTL wrong: %v -> %v", ex.Since, ex.Expires)
	}

	// Data already purged.
	if got := countIn(m, victim); got != 0 {
		t.Fatalf("%d services remain after exclusion", got)
	}
	// And stays purged while time passes (no rediscovery).
	m.Run(3 * 24 * time.Hour)
	if got := countIn(m, victim); got != 0 {
		t.Fatalf("%d services rediscovered despite exclusion", got)
	}
	if len(m.Exclusions()) != 1 {
		t.Fatalf("exclusions = %d", len(m.Exclusions()))
	}
}

// TestExclusionRescindResumesScanning: a rescinded opt-out is rediscovered on
// the next passes — including the very hosts whose data the opt-out retired.
// Regression: the retirement used to be journaled 72 h (EvictAfter) in the
// future, so every append for a retired host failed ErrOutOfOrder, silently,
// until the clock caught up.
func TestExclusionRescindResumesScanning(t *testing.T) {
	net, _ := testUniverse(t)
	m := testMap(t, net)
	m.Run(26 * time.Hour)
	var victim netip.Prefix
	for _, r := range m.CurrentServices(false) {
		b := r.Addr.As4()
		b[3] = 0
		victim = netip.PrefixFrom(netip.AddrFrom4(b), 24)
		break
	}
	retired := map[string]bool{}
	for _, r := range m.CurrentServices(true) {
		if victim.Contains(r.Addr) {
			retired[r.Addr.String()] = true
		}
	}
	if _, err := m.AddExclusion(victim, "noc@example.net"); err != nil {
		t.Fatal(err)
	}
	optedOut := m.Clock().Now()
	for id := range retired {
		evs := m.Journal().Events(id)
		if last := evs[len(evs)-1]; last.Kind != cqrs.KindServiceRemoved || !last.Time.Equal(optedOut) {
			t.Fatalf("%s: last event %s at %v, want a removal dated %v", id, last.Kind, last.Time, optedOut)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("after opt-out: %v", err)
	}
	if !m.RemoveExclusion(victim) {
		t.Fatal("rescind failed")
	}
	if m.RemoveExclusion(victim) {
		t.Fatal("double rescind succeeded")
	}
	m.Run(2 * 24 * time.Hour) // inside the 72 h eviction window
	if countIn(m, victim) == 0 {
		t.Fatal("scanning did not resume after rescind")
	}
	back := 0
	for id := range retired {
		evs := m.Journal().Events(id)
		if last := evs[len(evs)-1]; last.Time.After(optedOut) {
			back++
		}
	}
	if back == 0 {
		t.Fatalf("none of the %d retired hosts was journaled again within 48 h of the rescind", len(retired))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("after rediscovery: %v", err)
	}
}

func TestExclusionExpiresAfterAYear(t *testing.T) {
	net, _ := testUniverse(t)
	m := testMap(t, net)
	victim := netip.MustParsePrefix("10.0.0.0/25")
	if _, err := m.AddExclusion(victim, "noc@example.net"); err != nil {
		t.Fatal(err)
	}
	if len(m.Exclusions()) != 1 {
		t.Fatal("exclusion not active")
	}
	m.Clock().Advance(366 * 24 * time.Hour) // no pipeline running; just time
	if len(m.Exclusions()) != 0 {
		t.Fatal("exclusion did not expire after a year")
	}
}

func TestExclusionRejectsIPv6(t *testing.T) {
	net, _ := testUniverse(t)
	m := testMap(t, net)
	if _, err := m.AddExclusion(netip.MustParsePrefix("2001:db8::/64"), "x"); err == nil {
		t.Fatal("IPv6 exclusion accepted")
	}
}

func countIn(m *Map, prefix netip.Prefix) int {
	n := 0
	for _, r := range m.CurrentServices(false) {
		if prefix.Contains(r.Addr) {
			n++
		}
	}
	return n
}

func TestAnalyticsSnapshotsAccumulate(t *testing.T) {
	net, _ := testUniverse(t)
	m := testMap(t, net)
	m.Run(4 * 24 * time.Hour)
	store := m.Analytics()
	if store.Len() < 3 {
		t.Fatalf("daily snapshots = %d, want >= 3", store.Len())
	}
	// Longitudinal series: row counts grow as discovery proceeds.
	_, values := store.Series(func(d snapshot.Daily) float64 { return float64(len(d.Rows)) })
	if values[len(values)-1] < values[0] {
		t.Fatalf("snapshot series shrank: %v", values)
	}
	if values[len(values)-1] == 0 {
		t.Fatal("empty snapshots")
	}
	// Point-in-time analytics query over the snapshot schema.
	rows := store.Query(m.Clock().Now(), func(r snapshot.Row) bool {
		return r.ServiceName == "HTTP" && r.PendingRemovalSince.IsZero()
	})
	if len(rows) == 0 {
		t.Fatal("analytics query returned nothing")
	}
}
