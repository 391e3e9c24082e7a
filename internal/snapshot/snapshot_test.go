package snapshot

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/netip"
	"testing"
	"time"

	"censysmap/internal/entity"
)

var day0 = time.Date(2024, 8, 20, 0, 0, 0, 0, time.UTC)

// importDaily reads an exported snapshot back: the decoder the export's
// format is checked against.
func importDaily(r io.Reader) (Daily, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return Daily{}, err
	}
	defer gz.Close()
	dec := json.NewDecoder(gz)
	var d Daily
	for {
		var row Row
		if err := dec.Decode(&row); err != nil {
			if err == io.EOF {
				break
			}
			return Daily{}, err
		}
		d.Rows = append(d.Rows, row)
	}
	if len(d.Rows) > 0 {
		d.Date = d.Rows[0].SnapshotDate
	}
	return d, nil
}

func day(n int) time.Time { return day0.Add(time.Duration(n) * 24 * time.Hour) }

func host(ip string, ports ...uint16) *entity.Host {
	h := entity.NewHost(netip.MustParseAddr(ip))
	h.Location = &entity.Location{Country: "US"}
	h.AS = &entity.AS{Number: 64500}
	for _, p := range ports {
		h.SetService(&entity.Service{Port: p, Transport: entity.TCP, Protocol: "HTTP", Verified: true})
	}
	return h
}

// stubMap is the row source of these tests: the hosts the map held on each
// recorded day, standing in for the journal replay core wires in.
type stubMap map[time.Time][]*entity.Host

func (m stubMap) rows(date time.Time) []Row { return RowsFromHosts(date, m[date]) }

func newStubStore() (*Store, stubMap) {
	m := stubMap{}
	return NewStore(m.rows), m
}

// record makes hosts the map's state on day n and retains that day.
func (m stubMap) record(s *Store, n int, hosts ...*entity.Host) error {
	m[day(n)] = hosts
	return s.Record(day(n))
}

func TestRowsFromHostsFlattens(t *testing.T) {
	rows := RowsFromHosts(day(0), []*entity.Host{host("10.0.0.2", 80, 443), host("10.0.0.1", 22)})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Sorted by IP then port.
	if rows[0].IP != "10.0.0.1" || rows[1].Port != 80 || rows[2].Port != 443 {
		t.Fatalf("order: %+v", rows)
	}
	if rows[0].Country != "US" || rows[0].ASN != 64500 || rows[0].ServiceName != "HTTP" {
		t.Fatalf("row = %+v", rows[0])
	}
	// One port answering on both transports: transport breaks the tie.
	both := host("10.0.0.3", 53)
	both.SetService(&entity.Service{Port: 53, Transport: entity.UDP, Protocol: "DNS"})
	both.SetService(&entity.Service{Port: 22, Transport: entity.TCP, Protocol: "SSH"})
	rows = RowsFromHosts(day(0), []*entity.Host{both})
	if len(rows) != 3 || rows[0].Port != 22 || rows[1].Transport != "tcp" || rows[2].Transport != "udp" {
		t.Fatalf("order on a shared port: %+v", rows)
	}
}

func TestRowsIncludePendingTimestamp(t *testing.T) {
	h := host("10.0.0.1", 80)
	since := day(0)
	h.Service(entity.ServiceKey{Port: 80, Transport: entity.TCP}).PendingRemovalSince = &since
	rows := RowsFromHosts(day(1), []*entity.Host{h})
	if rows[0].PendingRemovalSince.IsZero() {
		t.Fatal("pending timestamp lost")
	}
}

func TestAddOrderEnforced(t *testing.T) {
	s, m := newStubStore()
	if err := m.record(s, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.record(s, 1); err == nil {
		t.Fatal("same-date snapshot accepted")
	}
	if err := m.record(s, 0); err == nil {
		t.Fatal("out-of-order snapshot accepted")
	}
}

func TestRetentionThinsOldSnapshots(t *testing.T) {
	s, m := newStubStore()
	// 180 days of snapshots: the older ~90 days must thin to ~1/week.
	for i := 0; i < 180; i++ {
		if err := m.record(s, i, host("10.0.0.1", 80)); err != nil {
			t.Fatal(err)
		}
	}
	n := s.Len()
	// Recent 90 days kept daily (90), older 90 days ~13 weekly.
	if n < 95 || n > 110 {
		t.Fatalf("retained %d snapshots, want ~103", n)
	}
	// Oldest retained snapshots are spaced ~a week apart.
	dates := s.Dates()
	gap := dates[1].Sub(dates[0])
	if gap < 6*24*time.Hour {
		t.Fatalf("old snapshots %v apart, want weekly", gap)
	}
	// Longitudinal queries still span the whole window.
	if dates[0].After(day(7)) {
		t.Fatalf("history truncated: oldest %v", dates[0])
	}
}

func TestAtFindsNewestNotAfter(t *testing.T) {
	s, m := newStubStore()
	m.record(s, 0, host("10.0.0.1", 80))
	m.record(s, 2, host("10.0.0.1", 80, 443))
	d, ok := s.At(day(1))
	if !ok || !d.Date.Equal(day(0)) {
		t.Fatalf("At(day1) = %v ok=%v", d.Date, ok)
	}
	d, _ = s.At(day(5))
	if len(d.Rows) != 2 {
		t.Fatalf("At(day5) rows = %d", len(d.Rows))
	}
	if _, ok := s.At(day0.Add(-time.Hour)); ok {
		t.Fatal("snapshot found before history begins")
	}
}

func TestQueryPredicate(t *testing.T) {
	s, m := newStubStore()
	m.record(s, 0, host("10.0.0.1", 80, 22), host("10.0.0.2", 443))
	rows := s.Query(day(0), func(r Row) bool { return r.Port == 443 })
	if len(rows) != 1 || rows[0].IP != "10.0.0.2" {
		t.Fatalf("rows = %+v", rows)
	}
	if got := s.Query(day0.Add(-time.Hour), func(Row) bool { return true }); got != nil {
		t.Fatal("query before history returned rows")
	}
}

func TestSeriesLongitudinal(t *testing.T) {
	s, m := newStubStore()
	m.record(s, 0, host("10.0.0.1", 80))
	m.record(s, 1, host("10.0.0.1", 80), host("10.0.0.2", 80))
	m.record(s, 2, host("10.0.0.1", 80), host("10.0.0.2", 80), host("10.0.0.3", 80))
	dates, values := s.Series(func(d Daily) float64 { return float64(len(d.Rows)) })
	if len(dates) != 3 || values[0] != 1 || values[2] != 3 {
		t.Fatalf("series = %v %v", dates, values)
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	s, m := newStubStore()
	m.record(s, 0, host("10.0.0.1", 80, 443), host("10.0.0.9", 22))
	var buf bytes.Buffer
	if err := s.Export(day(0), &buf); err != nil {
		t.Fatal(err)
	}
	got, err := importDaily(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 3 || !got.Date.Equal(day(0)) {
		t.Fatalf("imported %d rows at %v", len(got.Rows), got.Date)
	}
	if got.Rows[0].IP != "10.0.0.1" || got.Rows[2].Port != 22 {
		t.Fatalf("rows = %+v", got.Rows)
	}
}

func TestExportMissingDate(t *testing.T) {
	s, _ := newStubStore()
	var buf bytes.Buffer
	if err := s.Export(day(0), &buf); err == nil {
		t.Fatal("export of empty store succeeded")
	}
}
