package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"censysmap/internal/lookup"
)

// exportPage is the paginated endpoint's response envelope, decoded.
type exportPage struct {
	Query      string            `json:"query"`
	Generation uint64            `json:"generation"`
	Total      int               `json:"total"`
	Offset     int               `json:"offset"`
	Count      int               `json:"count"`
	Results    []json.RawMessage `json:"results"`
	NextCursor string            `json:"next_cursor,omitempty"`
}

// walkPages drives a paginated export to completion, returning the
// concatenation of every page's raw result lines (newline-terminated, the
// stream wire format) plus the page envelopes. between, when non-nil, runs
// after every page fetch — the differential tests use it to land writes
// mid-export.
func walkPages(t *testing.T, f *fixture, query string, perPage int, between func(page int)) ([]byte, []exportPage) {
	t.Helper()
	var buf bytes.Buffer
	var pages []exportPage
	url := "/v2/export/hosts?per_page=" + fmt.Sprint(perPage) +
		"&q=" + strings.ReplaceAll(query, " ", "+")
	for page := 0; ; page++ {
		rec := f.get(url, "k-int")
		if rec.Code != 200 {
			t.Fatalf("page %d: status = %d body=%s", page, rec.Code, rec.Body)
		}
		var p exportPage
		if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
			t.Fatalf("page %d: %v", page, err)
		}
		pages = append(pages, p)
		for _, line := range p.Results {
			buf.Write(line)
			buf.WriteByte('\n')
		}
		if between != nil {
			between(page)
		}
		if p.NextCursor == "" {
			return buf.Bytes(), pages
		}
		url = "/v2/export/hosts?per_page=" + fmt.Sprint(perPage) + "&cursor=" + p.NextCursor
	}
}

// stream fetches the whole export as NDJSON in one shot.
func (f *fixture) stream(t *testing.T, query string) []byte {
	t.Helper()
	rec := f.get("/v2/export/hosts/stream?q="+url.QueryEscape(query), "k-int")
	if rec.Code != 200 {
		t.Fatalf("stream: status = %d body=%s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// TestExportDifferentialByteStable is the tentpole's core guarantee: an
// export paginated across many requests, with index writes landing between
// every page, produces byte-for-byte the same output as a single-shot
// export taken before any of the writes.
func TestExportDifferentialByteStable(t *testing.T) {
	f := newFixture(t, Config{PageSize: 3})
	const query = "services.tls: true"

	// Reference: one single-shot stream before any interleaved writes. This
	// pins the snapshot the paginated walk will reuse (same generation).
	reference := f.stream(t, query)
	genBefore := f.ix.Generation()

	// Paginated walk with writes interleaved after every page: new hosts
	// join the index and an existing in-snapshot host changes its banner.
	paged, pages := walkPages(t, f, query, 3, func(page int) {
		f.seedHost(t, fmt.Sprintf("10.0.1.%d", page+1), "late-arrival")
		f.seedHost(t, "10.0.0.1", fmt.Sprintf("mutated-%d", page))
	})

	if !bytes.Equal(paged, reference) {
		t.Fatalf("paginated export diverges from pre-write single shot:\n--- paged\n%s\n--- reference\n%s",
			paged, reference)
	}
	if len(pages) != 3 {
		t.Fatalf("pages = %d, want 3 (8 rows / 3 per page)", len(pages))
	}
	for i, p := range pages {
		if p.Generation != genBefore {
			t.Errorf("page %d generation = %d, want pinned %d", i, p.Generation, genBefore)
		}
		if p.Total != 8 {
			t.Errorf("page %d total = %d, want 8", i, p.Total)
		}
	}

	// Guard against a vacuous pass: the interleaved writes really moved the
	// index, and a fresh export (new pin, new generation) sees them.
	if f.ix.Generation() == genBefore {
		t.Fatal("interleaved writes did not advance the index generation")
	}
	fresh := f.stream(t, query)
	if bytes.Equal(fresh, reference) {
		t.Fatal("post-write export identical to pre-write export; writes invisible")
	}
	if !strings.Contains(string(fresh), "late-arrival") {
		t.Fatal("post-write export missing the interleaved hosts")
	}
}

// TestExportStreamMatchesPages: the NDJSON stream and the paginated walk of
// the same pinned snapshot emit identical bytes.
func TestExportStreamMatchesPages(t *testing.T) {
	f := newFixture(t, Config{})
	const query = "services.protocol: HTTP"
	streamed := f.stream(t, query)
	paged, _ := walkPages(t, f, query, 3, nil)
	if !bytes.Equal(streamed, paged) {
		t.Fatalf("stream and page walks diverge:\n--- stream\n%s\n--- paged\n%s", streamed, paged)
	}
}

// evictPins opens maxPins more exports, each of a distinct query, so every
// pin resident before the call is evicted.
func evictPins(t *testing.T, f *fixture) {
	t.Helper()
	for i := 0; i < maxPins; i++ {
		f.stream(t, fmt.Sprintf("services.port: %d", 1000+i))
	}
	if got := f.srv.exp.pinCount(); got != maxPins {
		t.Fatalf("pins resident = %d, want %d", got, maxPins)
	}
}

// TestExportEvictedPinRebuilds: opening maxPins more exports evicts the
// first; while the index generation is unchanged the first cursor still
// resumes, rebuilding the snapshot bit-identically.
func TestExportEvictedPinRebuilds(t *testing.T) {
	f := newFixture(t, Config{})
	const query = "services.tls: true"

	first, pages := walkPagesPartial(t, f, query, 3, 1)
	evictPins(t, f)
	if _, ok := f.srv.exp.pins[pinKey{query, pages[0].Generation}]; ok {
		t.Fatal("the first export's pin is still resident")
	}

	// Resume: generation unchanged, so the rebuild must be byte-identical.
	rest := resumeToEnd(t, f, pages[len(pages)-1].NextCursor, 3)
	reference := f.stream(t, query)
	if got := append(append([]byte{}, first...), rest...); !bytes.Equal(got, reference) {
		t.Fatalf("rebuilt export diverges:\n--- resumed\n%s\n--- reference\n%s", got, reference)
	}
}

// TestExportExpiredCursor410: once the pinned snapshot is evicted AND the
// index has moved on, the cursor is unservable — 410 Gone, restart.
func TestExportExpiredCursor410(t *testing.T) {
	f := newFixture(t, Config{})
	_, pages := walkPagesPartial(t, f, "services.tls: true", 3, 1)
	next := pages[len(pages)-1].NextCursor
	if next == "" {
		t.Fatal("first page did not return a cursor")
	}

	evictPins(t, f)
	f.seedHost(t, "10.0.2.1", "mover") // move the generation

	rec := f.get("/v2/export/hosts?cursor="+next, "k-int")
	if rec.Code != 410 {
		t.Fatalf("status = %d body=%s, want 410", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "expired") {
		t.Fatalf("body = %s", rec.Body)
	}
}

// TestExportEmptyResult: a query matching nothing exports cleanly — zero
// total, empty results array (not null), no cursor, empty stream.
func TestExportEmptyResult(t *testing.T) {
	f := newFixture(t, Config{})
	const query = "services.protocol: MODBUS"
	rec := f.get("/v2/export/hosts?q=services.protocol%3A+MODBUS", "k-int")
	if rec.Code != 200 {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), `"results":[]`) {
		t.Fatalf("empty export results not []: %s", rec.Body)
	}
	var p exportPage
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Total != 0 || p.Count != 0 || p.NextCursor != "" {
		t.Fatalf("page = %+v", p)
	}
	if body := f.stream(t, query); len(body) != 0 {
		t.Fatalf("empty stream body = %q", body)
	}
}

// TestExportCursorOffsetOverflow: a cursor built from what the server hands
// out (query, generation) with an offset near MaxInt answers an empty last
// page — the offset is clamped before per_page is added to it.
func TestExportCursorOffsetOverflow(t *testing.T) {
	f := newFixture(t, Config{})
	const query = "services.tls: true"
	_, pages := walkPagesPartial(t, f, query, 3, 1)
	for _, off := range []int{math.MaxInt, math.MaxInt - 2, 9, 8} {
		token := encodeCursor(cursor{V: cursorVersion, Q: query, Gen: pages[0].Generation, Off: off})
		rec := f.get("/v2/export/hosts?per_page=3&cursor="+token, "k-int")
		if rec.Code != 200 {
			t.Fatalf("off=%d: status = %d body=%s", off, rec.Code, rec.Body)
		}
		var p exportPage
		if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
			t.Fatal(err)
		}
		if p.Total != 8 || p.Offset != 8 || p.Count != 0 || len(p.Results) != 0 || p.NextCursor != "" {
			t.Fatalf("off=%d: page = %+v", off, p)
		}
	}
}

// TestExportRejectsInvalidUTF8Query: a q that is not valid UTF-8 is refused
// with 400 before a pin is opened — a cursor carries its query through JSON,
// which would resume the export under different text — and a client that
// also passes a cursor gets the same answer, not "disagrees with cursor".
func TestExportRejectsInvalidUTF8Query(t *testing.T) {
	f := newFixture(t, Config{})
	const bad = "services.banner: \"\xff\""
	_, pages := walkPagesPartial(t, f, "services.tls: true", 3, 1)
	token := pages[0].NextCursor
	for _, u := range []string{
		"/v2/export/hosts?q=" + url.QueryEscape(bad),
		"/v2/export/hosts/stream?q=" + url.QueryEscape(bad),
		"/v2/export/hosts?q=" + url.QueryEscape(bad) + "&cursor=" + token,
	} {
		rec := f.get(u, "k-int")
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "not valid UTF-8") {
			t.Fatalf("%s: status %d body %s", u, rec.Code, rec.Body)
		}
	}
	f.srv.exp.mu.Lock()
	pins := len(f.srv.exp.pins)
	f.srv.exp.mu.Unlock()
	if pins != 1 {
		t.Fatalf("%d pins resident, want only the valid query's", pins)
	}
}

// walkPagesPartial fetches the first n pages only.
func walkPagesPartial(t *testing.T, f *fixture, query string, perPage, n int) ([]byte, []exportPage) {
	t.Helper()
	var buf bytes.Buffer
	var pages []exportPage
	url := "/v2/export/hosts?per_page=" + fmt.Sprint(perPage) +
		"&q=" + strings.ReplaceAll(query, " ", "+")
	for page := 0; page < n; page++ {
		rec := f.get(url, "k-int")
		if rec.Code != 200 {
			t.Fatalf("page %d: status = %d body=%s", page, rec.Code, rec.Body)
		}
		var p exportPage
		if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
		for _, line := range p.Results {
			buf.Write(line)
			buf.WriteByte('\n')
		}
		url = "/v2/export/hosts?per_page=" + fmt.Sprint(perPage) + "&cursor=" + p.NextCursor
	}
	return buf.Bytes(), pages
}

// resumeToEnd walks a cursor to the final page.
func resumeToEnd(t *testing.T, f *fixture, cursor string, perPage int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for cursor != "" {
		rec := f.get("/v2/export/hosts?per_page="+fmt.Sprint(perPage)+"&cursor="+cursor, "k-int")
		if rec.Code != 200 {
			t.Fatalf("resume: status = %d body=%s", rec.Code, rec.Body)
		}
		var p exportPage
		if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
			t.Fatal(err)
		}
		for _, line := range p.Results {
			buf.Write(line)
			buf.WriteByte('\n')
		}
		cursor = p.NextCursor
	}
	return buf.Bytes()
}

// TestExportRefusesWhenPartitionsMissing: export fans out over every
// partition like search, so with a partition quarantined it answers the same
// 503 and degraded header instead of a partial snapshot — for a new export,
// a cursor opened while healthy, and the stream alike.
func TestExportRefusesWhenPartitionsMissing(t *testing.T) {
	f := newFixture(t, Config{PageSize: 3})
	const query = "services.protocol: HTTP"
	first := f.get("/v2/export/hosts?q="+url.QueryEscape(query), "k-int")
	if first.Code != 200 {
		t.Fatalf("healthy export: status = %d body=%s", first.Code, first.Body)
	}
	var page struct {
		Next string `json:"next_cursor"`
	}
	if err := json.Unmarshal(first.Body.Bytes(), &page); err != nil || page.Next == "" {
		t.Fatalf("healthy first page has no cursor: %v %s", err, first.Body)
	}
	pins := f.srv.exp.pinCount()

	f.srv.svc.SetDegraded([]int{1}, 4)
	const wantDeg = "quarantined-partitions=1/4"
	search := f.get("/v2/hosts/search?q="+url.QueryEscape(query), "k-int")
	if search.Code != 503 || search.Header().Get(lookup.DegradedHeader) != wantDeg {
		t.Fatalf("degraded search: status = %d %s = %q", search.Code,
			lookup.DegradedHeader, search.Header().Get(lookup.DegradedHeader))
	}
	for _, u := range []string{
		"/v2/export/hosts?q=" + url.QueryEscape(query),
		"/v2/export/hosts?cursor=" + page.Next,
		"/v2/export/hosts/stream?q=" + url.QueryEscape(query),
	} {
		rec := f.get(u, "k-int")
		if rec.Code != 503 {
			t.Errorf("%s: status = %d body=%s, want 503", u, rec.Code, rec.Body)
		}
		if got := rec.Header().Get(lookup.DegradedHeader); got != wantDeg {
			t.Errorf("%s: %s = %q, want %q", u, lookup.DegradedHeader, got, wantDeg)
		}
		if rec.Header().Get(ExportGenerationHeader) != "" {
			t.Errorf("%s: refused export still names a generation", u)
		}
	}
	if got := f.srv.exp.pinCount(); got != pins {
		t.Fatalf("refused exports changed the resident pins %d -> %d", pins, got)
	}

	f.srv.svc.SetDegraded(nil, 0)
	rec := f.get("/v2/export/hosts?cursor="+page.Next, "k-int")
	if rec.Code != 200 || rec.Header().Get(lookup.DegradedHeader) != "" {
		t.Fatalf("recovered export: status = %d %s = %q", rec.Code,
			lookup.DegradedHeader, rec.Header().Get(lookup.DegradedHeader))
	}
}
