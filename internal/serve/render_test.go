package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"strconv"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"censysmap/internal/entity"
	"censysmap/internal/search"
)

// The parent's rendering, kept as the oracle for the bodies search and export
// now write from the index documents' shared bytes: encoding/json over cloned
// hosts — through the map[string]any envelope for search, json.Marshal per
// line and writeJSON(exportPage) for export pages. None of it touches a
// document's rendered bytes.

func refHosts(t *testing.T, ix *search.Index, ids []string) []*entity.Host {
	t.Helper()
	hosts := make([]*entity.Host, 0, len(ids))
	for _, id := range ids {
		if h := ix.Host(id); h != nil {
			hosts = append(hosts, h)
		}
	}
	return hosts
}

func refSearch(t *testing.T, ix *search.Index, q string, limit int) []byte {
	t.Helper()
	ids, err := ix.Search(q)
	if err != nil {
		t.Fatalf("pool query %q: %v", q, err)
	}
	total := len(ids)
	if limit > 0 && total > limit {
		ids = ids[:limit]
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, 200, map[string]any{"query": q, "total": total, "hosts": refHosts(t, ix, ids)})
	return rec.Body.Bytes()
}

func refLines(t *testing.T, ix *search.Index, q string) []json.RawMessage {
	t.Helper()
	ids, err := ix.Search(q)
	if err != nil {
		t.Fatalf("pool query %q: %v", q, err)
	}
	var lines []json.RawMessage
	for _, h := range refHosts(t, ix, ids) {
		blob, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, blob)
	}
	return lines
}

func refPage(q string, gen uint64, lines []json.RawMessage, off, per int) []byte {
	end := min(off+per, len(lines))
	page := exportPage{Query: q, Generation: gen, Total: len(lines), Offset: off,
		Count: end - off, Results: lines[off:end]}
	if page.Results == nil {
		page.Results = []json.RawMessage{}
	}
	if end < len(lines) {
		page.NextCursor = encodeCursor(cursor{V: cursorVersion, Q: q, Gen: gen, Off: end})
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, 200, page)
	return rec.Body.Bytes()
}

func refStream(lines []json.RawMessage) []byte {
	var b bytes.Buffer
	for _, l := range lines {
		b.Write(l)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// renderPool is every query the differential serves: the bench pool's eight
// templates, plus phrases and a query text that need escaping.
var renderPool = []string{
	"services.protocol: HTTP",
	"services.port: 443",
	"services.port: [0 TO 999]",
	"location.country: US",
	"services.protocol: HTTP and location.country: DE",
	"services.protocol: SSH and not services.tls: true",
	"services.protocol: HTTP or services.protocol: SSH",
	"services.tls: true and services.port: [0 TO 999]",
	"not services.port: 443",
	"ip: 10.0.3.*",
	"services.protocol: MODBUS",
	`"<script>"`,
	`services.banner: "a & b"`,
	"\"\u2028\"",
	"services.banner: \"\xff\"",
}

var (
	renderBanners = []string{"plain", "<script>alert(1)</script>", "a & b", "line\u2028sep\u2029para",
		"\xff\xfe not utf-8", `quote " backslash \`, "tab\tnewline\n", ""}
	renderProtocols = []string{"HTTP", "SSH", "MODBUS", "<b>&</b>"}
	renderCountries = []string{"US", "DE", "<&>"}
)

// randomHost draws a host with the awkward bytes the escaping has to get
// right, sometimes with no services at all.
func randomHost(rng *rand.Rand, addr netip.Addr) *entity.Host {
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	h := entity.NewHost(addr)
	h.LastUpdated = time.Unix(1724112000+rng.Int63n(1e6), rng.Int63n(1e9)).UTC()
	if rng.Intn(4) > 0 {
		h.Location = &entity.Location{Country: pick(renderCountries), City: pick(renderBanners)}
	}
	if rng.Intn(3) == 0 {
		h.AS = &entity.AS{Number: uint32(rng.Intn(70000)), Name: pick(renderBanners), Org: "Org & Co"}
		h.Software = []entity.Software{{Vendor: pick(renderBanners), Product: "nginx", Version: "1.2"}}
		h.Labels = []string{"ics", pick(renderBanners)}
		h.Vulns = []string{"CVE-2024-0001"}
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		svc := &entity.Service{Port: []uint16{22, 80, 443, 502, 8443}[rng.Intn(5)],
			Transport: entity.TCP, Protocol: pick(renderProtocols), TLS: rng.Intn(2) == 0,
			Banner: pick(renderBanners), Verified: rng.Intn(2) == 0,
			FirstSeen: h.LastUpdated, LastSeen: h.LastUpdated}
		if rng.Intn(2) == 0 {
			svc.Attributes = map[string]string{"http.title": pick(renderBanners)}
		}
		if rng.Intn(5) == 0 {
			svc.PendingRemovalSince = &h.LastUpdated
		}
		h.SetService(svc)
	}
	return h
}

// checkRendered compares every served search body, export page and stream of
// every pool query with the oracle's.
func checkRendered(t *testing.T, f *fixture, round int) {
	t.Helper()
	for _, q := range renderPool {
		esc := url.QueryEscape(q)
		for _, limit := range []int{0, 1, 25} {
			rec := f.get("/v2/hosts/search?limit="+strconv.Itoa(limit)+"&q="+esc, "k-int")
			if want := refSearch(t, f.ix, q, limit); rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("round %d: search %q limit %d: status %d\n--- got\n%s\n--- want\n%s",
					round, q, limit, rec.Code, rec.Body, want)
			}
		}
		if !utf8.ValidString(q) {
			// A cursor could not carry the query's bytes, so export refuses it.
			for _, route := range []string{"/v2/export/hosts?q=", "/v2/export/hosts/stream?q="} {
				if rec := f.get(route+esc, "k-int"); rec.Code != http.StatusBadRequest {
					t.Fatalf("round %d: %s%q: status %d, want 400", round, route, q, rec.Code)
				}
			}
			continue
		}
		lines, gen := refLines(t, f.ix, q), f.ix.Generation()
		for _, per := range []int{1, 3, 100} {
			u := "/v2/export/hosts?per_page=" + strconv.Itoa(per) + "&q=" + esc
			for off := 0; ; off += per {
				rec := f.get(u, "k-int")
				if want := refPage(q, gen, lines, off, per); rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) {
					t.Fatalf("round %d: export %q per_page %d offset %d: status %d\n--- got\n%s\n--- want\n%s",
						round, q, per, off, rec.Code, rec.Body, want)
				}
				if off+per >= len(lines) {
					break
				}
				token := encodeCursor(cursor{V: cursorVersion, Q: q, Gen: gen, Off: off + per})
				u = "/v2/export/hosts?per_page=" + strconv.Itoa(per) + "&cursor=" + token
			}
		}
		if got, want := f.stream(t, q), refStream(lines); !bytes.Equal(got, want) {
			t.Fatalf("round %d: stream %q:\n--- got\n%s\n--- want\n%s", round, q, got, want)
		}
	}
}

// TestRenderedBodiesMatchReference: search bodies, every export page and the
// export stream are byte-identical to the parent's encoding/json rendering,
// across random upserts and removals of hosts whose fields need escaping.
func TestRenderedBodiesMatchReference(t *testing.T) {
	f := newFixture(t, Config{Capacity: 64})
	rng := rand.New(rand.NewSource(25))
	addrs := make([]netip.Addr, 24)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{10, 0, 3, byte(i + 1)})
		f.ix.Upsert(randomHost(rng, addrs[i]))
	}
	checkRendered(t, f, -1)
	for round := 0; round < 50; round++ {
		for k, n := 0, 1+rng.Intn(4); k < n; k++ {
			a := addrs[rng.Intn(len(addrs))]
			if rng.Intn(4) == 0 {
				f.ix.Remove(a.String())
			} else {
				f.ix.Upsert(randomHost(rng, a))
			}
		}
		checkRendered(t, f, round)
	}
}

// TestRenderedBytesFollowVersions: a changed host shows its new bytes in the
// next search and export, while an export pinned before the change keeps
// serving the old ones.
func TestRenderedBytesFollowVersions(t *testing.T) {
	f := newFixture(t, Config{})
	const q = "services.tls: true"
	old, gen := refLines(t, f.ix, q), f.ix.Generation()
	first := f.get("/v2/export/hosts?per_page=1&q="+url.QueryEscape(q), "k-int")
	if want := refPage(q, gen, old, 0, 1); !bytes.Equal(first.Body.Bytes(), want) {
		t.Fatalf("first page:\n--- got\n%s\n--- want\n%s", first.Body, want)
	}

	f.seedHost(t, "10.0.0.1", "banner-v2") // the host on the pinned first page
	search := f.get("/v2/hosts/search?q="+url.QueryEscape(q), "k-int").Body.Bytes()
	if want := refSearch(t, f.ix, q, 0); !bytes.Equal(search, want) {
		t.Fatalf("search after the change:\n--- got\n%s\n--- want\n%s", search, want)
	}
	if !bytes.Contains(search, []byte("banner-v2")) {
		t.Fatalf("search after the change still serves the old bytes: %s", search)
	}
	if fresh := f.stream(t, q); !bytes.Equal(fresh, refStream(refLines(t, f.ix, q))) ||
		bytes.Equal(fresh, refStream(old)) {
		t.Fatalf("a new export after the change does not serve the new bytes:\n%s", fresh)
	}

	for off := 1; off < len(old); off++ {
		token := encodeCursor(cursor{V: cursorVersion, Q: q, Gen: gen, Off: off})
		rec := f.get("/v2/export/hosts?per_page=1&cursor="+token, "k-int")
		if want := refPage(q, gen, old, off, 1); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("pinned page %d after the change:\n--- got\n%s\n--- want\n%s", off, rec.Body, want)
		}
	}
}

// TestConcurrentFirstRenders: many requests render the same fresh documents
// at once (run under -race); every one serves the oracle's bytes.
func TestConcurrentFirstRenders(t *testing.T) {
	f := newFixture(t, Config{Capacity: 64})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 24; i++ {
		f.ix.Upsert(randomHost(rng, netip.AddrFrom4([4]byte{10, 0, 3, byte(i + 1)})))
	}
	const q = "not services.port: 443"
	wantSearch, wantStream := refSearch(t, f.ix, q, 0), refStream(refLines(t, f.ix, q))

	const goros = 8
	var wg sync.WaitGroup
	for i := 0; i < goros; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			route, want := "/v2/hosts/search?q=", wantSearch
			if i%2 == 1 {
				route, want = "/v2/export/hosts/stream?q=", wantStream
			}
			if got := f.get(route+url.QueryEscape(q), "k-int").Body.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("goroutine %d: %s diverges:\n%s", i, route, got)
			}
		}(i)
	}
	wg.Wait()
}

// TestPinnedPageBoundedAllocation: an export page costs a constant number of
// allocations, whether it is served from a resident pin or pins its query
// afresh — the lines are the documents' shared bytes, so a 100-host page of a
// 512-host result costs no more than a 4-host one.
func TestPinnedPageBoundedAllocation(t *testing.T) {
	f := newFixture(t, Config{})
	const hosts = 512
	for i := 0; i < hosts; i++ {
		h := entity.NewHost(netip.AddrFrom4([4]byte{10, 1, byte(i / 256), byte(i % 256)}))
		h.Location = &entity.Location{Country: "NL"}
		h.SetService(&entity.Service{Port: 8443, Transport: entity.TCP,
			Protocol: "HTTP", TLS: true, Banner: "server-banner", Verified: true})
		f.ix.Upsert(h)
	}
	// Each query text matches the same 512 hosts under a fresh pin key. The
	// requests are built before measuring, so only serving them is counted.
	n := 0
	measure := func(per int, fresh bool) float64 {
		const runs = 20 + 1 + 2*maxPins // AllocsPerRun's warm-up run, and ours
		reqs := make([]*http.Request, runs)
		for i := range reqs {
			if fresh {
				n++
			}
			q := url.QueryEscape(fmt.Sprintf("location.country: NL and not services.port: %d", n))
			reqs[i] = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v2/export/hosts?per_page=%d&q=%s", per, q), nil)
			reqs[i].Header.Set("Authorization", "Bearer k-int")
		}
		get := func() {
			rec := httptest.NewRecorder()
			f.srv.ServeHTTP(rec, reqs[0])
			if rec.Code != 200 || rec.Header().Get(ExportTotalHeader) != strconv.Itoa(hosts) {
				t.Fatalf("status = %d total = %s", rec.Code, rec.Header().Get(ExportTotalHeader))
			}
			reqs = reqs[1:]
		}
		for i := 0; i < 2*maxPins; i++ { // render the documents, fill the pin table
			get()
		}
		return testing.AllocsPerRun(20, get)
	}
	// A fresh pin adds the query's parse and per-partition evaluation; the
	// parent's clone-and-marshal spent ~18 allocations per matching host.
	// Under -race sync.Pool drops items at random, so the sizes may differ by
	// an allocation or two.
	for _, c := range []struct {
		fresh  bool
		budget float64
	}{{false, 64}, {true, 128}} {
		small, large := measure(4, c.fresh), measure(100, c.fresh)
		t.Logf("fresh pin %v: %.0f allocs/op at per_page=4, %.0f at per_page=100", c.fresh, small, large)
		if large > c.budget || large > small+2 {
			t.Errorf("export page (fresh pin: %v) allocates %.0f allocs/op at per_page=100, %.0f at per_page=4; "+
				"want ≤ %.0f and no more than per_page=4", c.fresh, large, small, c.budget)
		}
	}
}
