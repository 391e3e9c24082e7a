// Package snapshot implements the analytics tier of paper §5.3: daily
// snapshots of the full Internet map, retained for longitudinal analysis and
// bulk export. It stands in for the Google BigQuery tables and the Apache
// Avro raw-data downloads. A snapshot is a retained date; its rows are
// materialized from the journal when read.
//
// Retention follows the paper: every daily snapshot is kept for three
// months; older than that, only one weekday snapshot per week survives, so
// longitudinal queries stay possible at a fraction of the storage.
package snapshot

import (
	"cmp"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"censysmap/internal/entity"
)

// Row is one service row of a daily snapshot — the flat analytics schema
// (the paper's Appendix E query runs against exactly these columns).
type Row struct {
	SnapshotDate time.Time `json:"snapshot_date"`
	IP           string    `json:"ip"`
	Port         uint16    `json:"port"`
	Transport    string    `json:"transport"`
	ServiceName  string    `json:"service_name"`
	TLS          bool      `json:"tls,omitempty"`
	CertSHA256   string    `json:"cert_sha256,omitempty"`
	Country      string    `json:"country,omitempty"`
	ASN          uint32    `json:"asn,omitempty"`
	// PendingRemovalSince is non-zero for services in their eviction grace
	// window; analytics queries filter on it like the paper's
	// "pending_removal_since is null".
	PendingRemovalSince time.Time `json:"pending_removal_since,omitempty"`
}

// Daily is one day's snapshot.
type Daily struct {
	Date time.Time
	Rows []Row
}

// Source materializes the map's rows as they stood at date: the journal
// reconstructs any host at any instant (paper §5.2), so a daily snapshot is
// an export of that state, not a second copy of it.
type Source func(date time.Time) []Row

// retainDaily is how long every daily snapshot is kept (paper: 3 months);
// beyond it, thinning keeps one snapshot per week.
const retainDaily = 90 * 24 * time.Hour

// Store is a view: it holds the retained snapshot dates and the source that
// materializes one, and no row; a read pays a replay of the map as of its date.
type Store struct {
	source Source

	mu    sync.RWMutex
	dates []time.Time // ascending
}

// NewStore creates a store with the paper's retention policy over source.
func NewStore(source Source) *Store {
	return &Store{source: source}
}

// RowsFromHosts flattens host records into the snapshot schema, in canonical
// (ip, port, transport) order.
func RowsFromHosts(date time.Time, hosts []*entity.Host) []Row {
	var rows []Row
	for _, h := range hosts {
		country := ""
		if h.Location != nil {
			country = h.Location.Country
		}
		var asn uint32
		if h.AS != nil {
			asn = h.AS.Number
		}
		for _, svc := range h.AllServices() {
			row := Row{
				SnapshotDate: date,
				IP:           h.IP.String(),
				Port:         svc.Port,
				Transport:    string(svc.Transport),
				ServiceName:  svc.Protocol,
				TLS:          svc.TLS,
				CertSHA256:   svc.CertSHA256,
				Country:      country,
				ASN:          asn,
			}
			if svc.PendingRemovalSince != nil {
				row.PendingRemovalSince = *svc.PendingRemovalSince
			}
			rows = append(rows, row)
		}
	}
	slices.SortFunc(rows, func(a, b Row) int {
		return cmp.Or(cmp.Compare(a.IP, b.IP), cmp.Compare(a.Port, b.Port), cmp.Compare(a.Transport, b.Transport))
	})
	return rows
}

// Record retains date as a daily snapshot and applies retention thinning.
// Dates must arrive in order.
func (s *Store) Record(date time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.dates); n > 0 && !date.After(s.dates[n-1]) {
		return fmt.Errorf("snapshot: date %v not after head %v", date, s.dates[n-1])
	}
	s.dates = append(s.dates, date)
	s.thin(date)
	return nil
}

// thin keeps one snapshot per ISO week beyond the daily-retention horizon.
func (s *Store) thin(now time.Time) {
	horizon := now.Add(-retainDaily)
	kept := s.dates[:0]
	var lastWeek string
	for _, d := range s.dates {
		if !d.Before(horizon) {
			kept = append(kept, d)
			continue
		}
		y, w := d.ISOWeek()
		week := fmt.Sprintf("%d-%02d", y, w)
		if week == lastWeek {
			continue // a snapshot from this week is already kept
		}
		lastWeek = week
		kept = append(kept, d)
	}
	s.dates = kept
}

// Len reports retained snapshots.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.dates)
}

// Dates lists retained snapshot dates.
func (s *Store) Dates() []time.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]time.Time(nil), s.dates...)
}

// At materializes the newest snapshot at or before date.
func (s *Store) At(date time.Time) (Daily, bool) {
	s.mu.RLock()
	idx := sort.Search(len(s.dates), func(i int) bool {
		return s.dates[i].After(date)
	})
	if idx == 0 {
		s.mu.RUnlock()
		return Daily{}, false
	}
	at := s.dates[idx-1]
	s.mu.RUnlock()
	return Daily{Date: at, Rows: s.source(at)}, true
}

// Query runs a predicate scan over one snapshot — the arbitrarily-complex
// analytics path that the interactive search tier cannot serve.
func (s *Store) Query(date time.Time, pred func(Row) bool) []Row {
	d, ok := s.At(date)
	if !ok {
		return nil
	}
	var out []Row
	for _, r := range d.Rows {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// Series computes a longitudinal aggregate across every retained snapshot —
// e.g. "count of MODBUS services over time" — materializing one at a time.
func (s *Store) Series(agg func(Daily) float64) (dates []time.Time, values []float64) {
	dates = s.Dates()
	for _, d := range dates {
		values = append(values, agg(Daily{Date: d, Rows: s.source(d)}))
	}
	return dates, values
}

// Export writes a snapshot as gzipped JSON-lines — the "raw data downloads"
// researchers prefer (each line one Row; Avro's role is played by a
// self-describing row encoding).
func (s *Store) Export(date time.Time, w io.Writer) error {
	d, ok := s.At(date)
	if !ok {
		return fmt.Errorf("snapshot: no snapshot at or before %v", date)
	}
	gz := gzip.NewWriter(w)
	enc := json.NewEncoder(gz)
	for _, r := range d.Rows {
		if err := enc.Encode(r); err != nil {
			gz.Close()
			return err
		}
	}
	return gz.Close()
}

// Import reads an exported snapshot back.
func Import(r io.Reader) (Daily, error) {
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
