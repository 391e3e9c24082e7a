package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"censysmap/internal/cqrs"
	"censysmap/internal/enrich"
	"censysmap/internal/entity"
	"censysmap/internal/journal"
	"censysmap/internal/lookup"
	"censysmap/internal/search"
	"censysmap/internal/simclock"
	"censysmap/internal/telemetry"
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
		// One recorder serves every run: its buffer grows before the measured
		// runs, so they count the handler and not the growth a fresh recorder
		// pays per doubling of the body.
		rec := httptest.NewRecorder()
		get := func() {
			clear(rec.Header())
			rec.Body.Reset()
			f.srv.ServeHTTP(rec, reqs[0]) // rec.Code keeps the first run's status
			if rec.Code != 200 || rec.Header().Get(ExportTotalHeader) != strconv.Itoa(hosts) ||
				!bytes.HasPrefix(rec.Body.Bytes(), []byte(`{"query":`)) {
				t.Fatalf("status = %d total = %s body=%s", rec.Code, rec.Header().Get(ExportTotalHeader), rec.Body)
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

// The per-request point read, kept as the oracle for the body and ETag the
// read side renders once per journal version: json.NewEncoder over
// Reader.HostAt's host, hashed with FNV-64a into a quoted hex ETag.
func refHostBody(t *testing.T, oracle *cqrs.Reader, a netip.Addr, asOf time.Time) (body []byte, etag string, ok bool) {
	t.Helper()
	h, ok := oracle.HostAt(a.String(), asOf)
	if !ok {
		return nil, "", false
	}
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(h); err != nil {
		t.Fatal(err)
	}
	sum := fnv.New64a()
	sum.Write(b.Bytes())
	return b.Bytes(), `"` + strconv.FormatUint(sum.Sum64(), 16) + `"`, true
}

// hostTier is a serving tier whose point reads go through a reader of j with
// the real enrichment (geolocation, AS, fingerprints), so rendered bodies
// carry every derived field.
func hostTier(t testing.TB, clk *simclock.Sim, j *journal.Store) (*Server, cqrs.Enricher) {
	t.Helper()
	geo, asn := enrich.NewGeoDB(), enrich.NewASNDB()
	geo.Add(netip.MustParsePrefix("10.0.4.0/24"), "DE", "Berlin <&>")
	asn.Add(netip.MustParsePrefix("10.0.0.0/8"), 64500, "AS & Co", "<org>")
	enricher := enrich.New(geo, asn)
	srv, err := New(Config{Tenants: defaultTenants()},
		lookup.New(cqrs.NewReader(j, enricher), clk), search.NewPartitioned(1), clk)
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachMetrics(telemetry.New())
	return srv, enricher
}

// getHost issues GET u with the internal key and, when set, If-None-Match.
func getHost(srv *Server, u, ifNoneMatch string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, u, nil)
	req.Header.Set("Authorization", "Bearer k-int")
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// checkHistory holds a's history body to the oracle's events for a, rendered
// through cqrs.AppendEventJSON.
func checkHistory(t *testing.T, srv *Server, oracle *cqrs.Reader, a netip.Addr) {
	t.Helper()
	want := []byte{'['}
	for i, ev := range oracle.History(a.String()) {
		if i > 0 {
			want = append(want, ',')
		}
		var err error
		if want, err = cqrs.AppendEventJSON(want, ev); err != nil {
			t.Fatal(err)
		}
	}
	want = append(want, ']', '\n')
	if rec := getHost(srv, "/v2/hosts/"+a.String()+"/history", ""); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("%s history: status %d\n--- got\n%s\n--- want\n%s", a, rec.Code, rec.Body, want)
	}
}

// randomObservation draws a write for a: a service found or changed (awkward
// banners, fingerprinted server headers), or a failed refresh that starts or
// completes an eviction.
func randomObservation(rng *rand.Rand, a netip.Addr, now time.Time) cqrs.Observation {
	port := []uint16{22, 80, 443, 8443}[rng.Intn(4)]
	obs := cqrs.Observation{Addr: a, Port: port, Transport: entity.TCP, Time: now, PoP: "chi"}
	if rng.Intn(3) == 0 {
		return obs
	}
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	obs.Success = true
	obs.Service = &entity.Service{Port: port, Transport: entity.TCP, Protocol: pick(renderProtocols),
		TLS: port == 443, Banner: pick(renderBanners), Verified: rng.Intn(2) == 0,
		Attributes: map[string]string{
			"http.server": pick([]string{"nginx/1.25", "Apache httpd/2.4.49", "<b>&</b>"}),
			"ssh.version": pick([]string{"SSH-2.0-OpenSSH_7.4", "SSH-2.0-dropbear", "\xff"}),
		}}
	return obs
}

// TestHostBodiesMatchReference: every /v2/hosts/{ip} 200 is byte for byte
// the oracle's body with the oracle's ETag, across random found, changed,
// pending and removed events and the snapshots they trigger, interleaved
// with current reads, ?at= reads of earlier instants, and If-None-Match
// replays of current and stale validators. A matching validator answers 304
// with no body and no Content-Type; a stale one answers the new body.
func TestHostBodiesMatchReference(t *testing.T) {
	clk := simclock.New()
	j := journal.NewPartitioned(4)
	proc := cqrs.NewProcessor(cqrs.Config{}, j)
	srv, enricher := hostTier(t, clk, j)
	oracle := cqrs.NewReader(j, enricher)
	rng := rand.New(rand.NewSource(40))
	addrs := make([]netip.Addr, 12) // the last is never written: 404
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{10, 0, 4, byte(i + 1)})
	}
	seen := map[netip.Addr]string{} // the last validator a client was handed
	instants := []time.Time{clk.Now()}
	var hits, fresh, historical int
	for step := 0; step < 2000; step++ {
		clk.Advance(time.Duration(1+rng.Intn(180)) * time.Minute)
		instants = append(instants, clk.Now())
		a := addrs[rng.Intn(len(addrs)-1)]
		switch rng.Intn(8) {
		case 0, 1, 2:
			if err := proc.Apply(randomObservation(rng, a, clk.Now())); err != nil {
				t.Fatal(err)
			}
		case 3:
			key := entity.ServiceKey{Port: []uint16{22, 80, 443, 8443}[rng.Intn(4)], Transport: entity.TCP}
			if err := proc.Retire(a, key, clk.Now()); err != nil {
				t.Fatal(err)
			}
		}
		proc.Drain()

		a = addrs[rng.Intn(len(addrs))]
		u, asOf, inm := "/v2/hosts/"+a.String(), clk.Now(), ""
		switch rng.Intn(4) {
		case 0:
			asOf = instants[rng.Intn(len(instants))]
			u += "?at=" + asOf.Format(time.RFC3339)
			historical++
		case 1, 2:
			inm = seen[a]
		}
		want, etag, ok := refHostBody(t, oracle, a, asOf)
		rec := getHost(srv, u, inm)
		switch {
		case !ok:
			if rec.Code != http.StatusNotFound || rec.Header().Get("ETag") != "" {
				t.Fatalf("step %d: %s: status %d ETag %q, want 404 without ETag", step, u, rec.Code, rec.Header().Get("ETag"))
			}
		case rec.Header().Get("ETag") != etag:
			t.Fatalf("step %d: %s: ETag %q, want %q", step, u, rec.Header().Get("ETag"), etag)
		case inm == etag:
			if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 || rec.Header().Get("Content-Type") != "" {
				t.Fatalf("step %d: %s If-None-Match %s: status %d, %d body bytes, Content-Type %q; want a bare 304",
					step, u, inm, rec.Code, rec.Body.Len(), rec.Header().Get("Content-Type"))
			}
			hits++
		default:
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) ||
				rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("step %d: %s If-None-Match %q: status %d\n--- got\n%s\n--- want\n%s",
					step, u, inm, rec.Code, rec.Body, want)
			}
			if inm != "" {
				fresh++
			}
			seen[a] = etag
		}
		checkHistory(t, srv, oracle, a)
	}
	if st := j.Stats(); st.Snapshots == 0 || hits == 0 || fresh == 0 || historical == 0 {
		t.Fatalf("schedule too tame: %d snapshots, %d 304s, %d stale validators, %d ?at= reads",
			st.Snapshots, hits, fresh, historical)
	}
}

// TestConcurrentHostReads: two goroutines read the hosts a writer keeps
// appending to (run under -race). Every 200 is the oracle's body at one of
// the instants the writer reached, with that body's ETag, and once the
// writer stops every host serves its final version.
func TestConcurrentHostReads(t *testing.T) {
	clk := simclock.New()
	j := journal.NewPartitioned(2)
	proc := cqrs.NewProcessor(cqrs.Config{}, j)
	srv, enricher := hostTier(t, clk, j)
	oracle := cqrs.NewReader(j, enricher)
	addrs := make([]netip.Addr, 4)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{10, 0, 4, byte(i + 1)})
	}
	type read struct {
		a          netip.Addr
		body, etag string
	}
	var (
		wg    sync.WaitGroup
		done  = make(chan struct{})
		reads [2][]read
	)
	for g := range reads {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-done:
					return
				default:
				}
				a := addrs[rng.Intn(len(addrs))]
				if rec := getHost(srv, "/v2/hosts/"+a.String(), ""); rec.Code == http.StatusOK {
					reads[g] = append(reads[g], read{a, rec.Body.String(), rec.Header().Get("ETag")})
				}
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(41))
	instants := []time.Time{}
	for step := 0; step < 300; step++ {
		clk.Advance(time.Hour)
		instants = append(instants, clk.Now())
		if err := proc.Apply(randomObservation(rng, addrs[rng.Intn(len(addrs))], clk.Now())); err != nil {
			t.Fatal(err)
		}
		proc.Drain()
		runtime.Gosched()
	}
	close(done)
	wg.Wait()

	valid := map[string]string{} // body → ETag, over every version the writer made
	for _, a := range addrs {
		for _, at := range instants {
			if body, etag, ok := refHostBody(t, oracle, a, at); ok {
				valid[string(body)] = etag
			}
		}
		want, etag, _ := refHostBody(t, oracle, a, clk.Now())
		if rec := getHost(srv, "/v2/hosts/"+a.String(), ""); !bytes.Equal(rec.Body.Bytes(), want) ||
			rec.Header().Get("ETag") != etag {
			t.Fatalf("%s after the writer stopped:\n--- got\n%s\n--- want\n%s", a, rec.Body, want)
		}
	}
	for g := range reads {
		for _, r := range reads[g] {
			if etag, ok := valid[r.body]; !ok || etag != r.etag {
				t.Fatalf("reader %d: %s served a body no version of the host has, or the wrong ETag %s:\n%s",
					g, r.a, r.etag, r.body)
			}
		}
	}
	t.Logf("%d and %d concurrent reads checked", len(reads[0]), len(reads[1]))
}

// TestRestoredPartitionServesRestoredRows: a RestorePartition over a store
// whose hosts have been read serves the restored rows — even where a row
// comes back with different events of the same length, and where a read host
// is not in the dump at all.
func TestRestoredPartitionServesRestoredRows(t *testing.T) {
	clk := simclock.New()
	j, other := journal.NewStore(), journal.NewStore()
	srv, enricher := hostTier(t, clk, j)
	oracle := cqrs.NewReader(j, enricher)
	a, gone := netip.MustParseAddr("10.0.4.1"), netip.MustParseAddr("10.0.4.2")
	for _, w := range []struct {
		j      *journal.Store
		banner string
		addrs  []netip.Addr
	}{{j, "v1", []netip.Addr{a, gone}}, {other, "v2", []netip.Addr{a}}} {
		proc := cqrs.NewProcessor(cqrs.Config{}, w.j)
		for _, addr := range w.addrs {
			svc := &entity.Service{Port: 80, Transport: entity.TCP, Protocol: "HTTP", Banner: w.banner}
			if err := proc.Apply(cqrs.Observation{Addr: addr, Port: 80, Transport: entity.TCP,
				Time: clk.Now(), Success: true, Service: svc}); err != nil {
				t.Fatal(err)
			}
		}
		proc.Drain()
	}
	before := getHost(srv, "/v2/hosts/"+a.String(), "")
	checkHistory(t, srv, oracle, a)
	if rec := getHost(srv, "/v2/hosts/"+gone.String(), ""); rec.Code != http.StatusOK {
		t.Fatalf("%s before the restore: status %d", gone, rec.Code)
	}
	if j.Len(a.String()) != other.Len(a.String()) {
		t.Fatalf("rows differ in length (%d, %d); the check needs equal lengths",
			j.Len(a.String()), other.Len(a.String()))
	}

	if err := j.RestorePartition(0, other.DumpPartition(0)); err != nil {
		t.Fatal(err)
	}
	want, etag, _ := refHostBody(t, oracle, a, clk.Now())
	rec := getHost(srv, "/v2/hosts/"+a.String(), before.Header().Get("ETag"))
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) || rec.Header().Get("ETag") != etag ||
		bytes.Equal(want, before.Body.Bytes()) {
		t.Fatalf("%s after the restore: status %d\n--- got\n%s\n--- want\n%s", a, rec.Code, rec.Body, want)
	}
	if rec := getHost(srv, "/v2/hosts/"+gone.String(), ""); rec.Code != http.StatusNotFound {
		t.Fatalf("%s after a restore without its row: status %d, want 404", gone, rec.Code)
	}
	checkHistory(t, srv, oracle, a)
	checkHistory(t, srv, oracle, gone)
}
