package search

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"censysmap/internal/entity"
)

// This file checks the diffing upsert: an index maintained through any
// schedule of upserts and removals must hold exactly the postings, numeric
// columns and live set of an index built fresh from the final hosts, and
// every document's fragments must hold exactly the Flatten schema.

// chooser draws a choice in [0, n): from a seeded rng in the schedule test,
// from fuzz bytes in FuzzIndexUpserts.
type chooser func(n int) int

func rngChooser(rng *rand.Rand) chooser { return rng.Intn }

func bytesChooser(data []byte) chooser {
	return func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
}

// Value pools: upper case, non-ASCII and invalid UTF-8, numbers, and tokens
// shared across services, so a dropped fragment often holds tokens the new
// document still holds elsewhere.
var (
	incProtocols = []string{"HTTP", "SSH", "MODBUS", "HTTP", "Ünknown"}
	incBanners   = []string{"HTTP/1.1 200 OK", "SSH-2.0-OpenSSH_8.9", "ok OK ok", "", "Straße 42", "42", "-7", "\xff\xfe x", "banner item 3"}
	incTitles    = []string{"Welcome to nginx!", "Login", "Router Admin", "8080", "ok"}
	incPorts     = []uint16{22, 80, 443, 502, 8080}
	incCountries = []string{"US", "DE", "", "FR"}
	incLabels    = [][]string{nil, {"ics"}, {"ics", "web"}, {"Router"}}
	incSoftware  = [][]entity.Software{nil, {{Vendor: "F5", Product: "nginx", Version: "1.24"}},
		{{Product: "OpenSSH", Version: "8.9", Part: "a"}, {Vendor: "MikroTik", Product: "RouterOS", Part: "o"}}}
)

func pickOf[T any](pick chooser, pool []T) T { return pool[pick(len(pool))] }

func incService(pick chooser) *entity.Service {
	s := &entity.Service{Port: pickOf(pick, incPorts), Transport: entity.TCP,
		Protocol: pickOf(pick, incProtocols), Banner: pickOf(pick, incBanners), Verified: true}
	if pick(4) == 0 {
		s.Transport = entity.UDP
	}
	editService(pick, s)
	return s
}

// editService changes one indexed (or, for Verified, unindexed) field.
func editService(pick chooser, s *entity.Service) {
	switch pick(6) {
	case 0:
		s.Banner = pickOf(pick, incBanners)
	case 1:
		s.Protocol = pickOf(pick, incProtocols)
	case 2:
		s.TLS = !s.TLS
		s.CertSHA256 = ""
		if s.TLS {
			s.CertSHA256 = fmt.Sprintf("C%02d", pick(4))
		}
	case 3:
		if s.Attributes == nil {
			s.Attributes = map[string]string{}
		}
		s.Attributes["http.title"] = pickOf(pick, incTitles)
	case 4:
		delete(s.Attributes, "http.title")
		if pick(2) == 0 {
			s.Attributes = map[string]string{"http.server": pickOf(pick, incTitles)}
		}
	default:
		s.Verified = !s.Verified
	}
}

func incHostFields(pick chooser, h *entity.Host) {
	switch pick(5) {
	case 0:
		h.Location = &entity.Location{Country: pickOf(pick, incCountries), City: pickOf(pick, []string{"", "Berlin", "São Paulo"})}
	case 1:
		h.AS = &entity.AS{Number: uint32(64500 + pick(3)), Name: "AS-NAME", Org: pickOf(pick, []string{"Example Networks", "Org 5"})}
	case 2:
		h.Labels = pickOf(pick, incLabels)
	case 3:
		h.Vulns = pickOf(pick, [][]string{nil, {"CVE-2021-41773"}, {"CVE-2018-14847", "CVE-2021-41773"}})
	default:
		h.Software = pickOf(pick, incSoftware)
	}
}

func incHost(pick chooser, addr netip.Addr) *entity.Host {
	h := entity.NewHost(addr)
	incHostFields(pick, h)
	incHostFields(pick, h)
	for n := pick(4); n >= 0; n-- {
		h.SetService(incService(pick))
	}
	return h
}

// incStep applies one scheduled change to the index and to hosts, the
// expected final state. A changed host is always a fresh clone: the index
// owns what it was handed.
func incStep(ix *Index, hosts map[netip.Addr]*entity.Host, addrs []netip.Addr, pick chooser) {
	a := addrs[pick(len(addrs))]
	h := hosts[a]
	op := pick(8)
	if h == nil && op != 6 {
		op = 0
	}
	var svcs []*entity.Service
	if op != 0 && op != 6 {
		h = h.Clone()
		svcs = h.AllServices()
	}
	switch {
	case op == 0:
		h = incHost(pick, a)
	case op == 1 && len(svcs) > 0: // one service's configuration changes
		s := svcs[pick(len(svcs))]
		editService(pick, s)
	case op == 2 || op == 1: // a service is found
		h.SetService(incService(pick))
	case op == 3 && len(svcs) > 0: // a service goes pending, or comes back
		s := svcs[pick(len(svcs))]
		if s.PendingRemovalSince == nil {
			t := time.Unix(1724112000, 0)
			s.PendingRemovalSince = &t
		} else {
			s.PendingRemovalSince = nil
		}
	case op == 4 && len(svcs) > 0: // a service is evicted
		h.RemoveService(svcs[pick(len(svcs))].Key())
	case op == 5: // enrichment changes a host-level field
		incHostFields(pick, h)
	case op == 6:
		ix.Remove(a.String())
		delete(hosts, a)
		return
	}
	hosts[a] = h
	ix.Upsert(h)
}

// indexDump is an index's postings, numeric columns and live set keyed by
// entity ID, so indexes that assigned local IDs differently compare equal.
type indexDump struct {
	Postings map[string][]string // field, token -> sorted IDs
	Numeric  map[string][]string // field, value -> sorted IDs
	Live     []string
}

func dumpIndex(t testing.TB, ix *Index) indexDump {
	t.Helper()
	if err := ix.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	d := indexDump{Postings: map[string][]string{}, Numeric: map[string][]string{}, Live: []string{}}
	for _, p := range ix.parts {
		p.mu.RLock()
		for field, byTok := range p.inverted {
			for tok, list := range byTok {
				for _, lid := range list {
					k := field + " " + strconv.Quote(tok)
					d.Postings[k] = append(d.Postings[k], p.byLocal[lid].id)
				}
			}
		}
		for field, col := range p.numeric {
			for _, e := range col {
				k := field + " " + strconv.FormatInt(e.val, 10)
				d.Numeric[k] = append(d.Numeric[k], p.byLocal[e.doc].id)
			}
		}
		for _, lid := range p.live {
			d.Live = append(d.Live, p.byLocal[lid].id)
		}
		p.mu.RUnlock()
	}
	for _, ids := range d.Postings {
		sort.Strings(ids)
	}
	for _, ids := range d.Numeric {
		sort.Strings(ids)
	}
	sort.Strings(d.Live)
	return d
}

// checkMatchesRebuild compares ix with an index built fresh from hosts.
func checkMatchesRebuild(t testing.TB, ix *Index, hosts map[netip.Addr]*entity.Host) {
	t.Helper()
	fresh := NewPartitioned(1)
	for _, h := range hosts {
		fresh.Upsert(h.Clone())
	}
	got, want := dumpIndex(t, ix), dumpIndex(t, fresh)
	if !reflect.DeepEqual(got.Live, want.Live) {
		t.Fatalf("live:\n got %v\nwant %v", got.Live, want.Live)
	}
	for _, m := range []struct {
		name      string
		got, want map[string][]string
	}{{"posting", got.Postings, want.Postings}, {"numeric entry", got.Numeric, want.Numeric}} {
		for k, ids := range m.got {
			if !slices.Equal(ids, m.want[k]) {
				t.Fatalf("%s %s: incremental %v, rebuilt %v", m.name, k, ids, m.want[k])
			}
		}
		for k, ids := range m.want {
			if _, ok := m.got[k]; !ok {
				t.Fatalf("%s %s: missing from the incremental index (rebuilt %v)", m.name, k, ids)
			}
		}
	}
}

func incAddrs(n int) []netip.Addr {
	addrs := make([]netip.Addr, n)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{10, 0, byte(i / 200), byte(1 + i%200)})
	}
	return addrs
}

// TestIncrementalIndexMatchesRebuild runs a seeded schedule of one-service
// changes, additions, pending marks, evictions, host-field changes, removals
// and unchanged re-upserts, and compares against a fresh build at
// checkpoints and at the end.
func TestIncrementalIndexMatchesRebuild(t *testing.T) {
	for _, parts := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("parts%d", parts), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(28 + parts)))
			ix := NewPartitioned(parts)
			hosts := map[netip.Addr]*entity.Host{}
			addrs := incAddrs(40)
			for i := 1; i <= 3000; i++ {
				incStep(ix, hosts, addrs, rngChooser(rng))
				if i%500 == 0 {
					checkMatchesRebuild(t, ix, hosts)
				}
			}
		})
	}
}

// FuzzIndexUpserts drives the same schedule from bytes: the first byte picks
// the partition count, every later one a choice.
func FuzzIndexUpserts(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 3, 0, 0, 3, 1, 1, 0, 3, 1, 1, 1, 3, 4, 0, 3, 6})
	f.Add([]byte("\x02the same host, re-upserted and edited one service at a time"))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 64+rng.Intn(256))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			return
		}
		pick := bytesChooser(data)
		ix := NewPartitioned([]int{1, 4, 8}[pick(3)])
		hosts := map[netip.Addr]*entity.Host{}
		addrs := incAddrs(6)
		for len(data) > 0 {
			before := len(data)
			incStep(ix, hosts, addrs, pick)
			if len(data) == before {
				break
			}
		}
		checkMatchesRebuild(t, ix, hosts)
	})
}

// entryKeys renders a document's entries, and Flatten's values through the
// reference tokenizer, as comparable multisets: field, token list (the whole
// lowercased value first) and integer reading.
func entryKeys(d *document) []string {
	var out []string
	for _, f := range d.frags {
		for _, e := range f.entries {
			out = append(out, fmt.Sprintf("%s %q %v %d", e.field, e.toks, e.isNum, e.num))
		}
	}
	sort.Strings(out)
	return out
}

func flattenKeys(h *entity.Host) []string {
	var out []string
	for field, values := range Flatten(h) {
		for _, v := range values {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				n = 0
			}
			out = append(out, fmt.Sprintf("%s %q %v %d", field, refTokenize(v), err == nil, n))
		}
	}
	sort.Strings(out)
	return out
}

// TestFragmentsMatchFlatten: a document's (field, value) multiset is
// Flatten(h) — for documents built from scratch and for documents whose
// fragments were carried over from earlier versions.
func TestFragmentsMatchFlatten(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ix := NewPartitioned(4)
	hosts := map[netip.Addr]*entity.Host{}
	addrs := incAddrs(12)
	check := func(h *entity.Host, d *document) {
		t.Helper()
		if got, want := entryKeys(d), flattenKeys(h); !slices.Equal(got, want) {
			t.Fatalf("%s:\n fragments %q\n Flatten   %q", h.ID(), got, want)
		}
	}
	for i := 0; i < 2000; i++ {
		incStep(ix, hosts, addrs, rngChooser(rng))
		for a, h := range hosts {
			p := ix.part(a.String())
			p.mu.RLock()
			d := p.docs[a.String()]
			p.mu.RUnlock()
			check(h, d)
		}
	}
	for i := 0; i < 200; i++ {
		h := genHost(rng, i)
		check(h, newDocument(h.ID(), h, nil))
	}
}

// FuzzTokenize: the one-pass tokenizer returns exactly refTokenize's tokens,
// in its order, and parseNumber reads exactly what
// strconv.ParseInt accepts.
func FuzzTokenize(f *testing.F) {
	for _, s := range []string{"", "Welcome to nginx!", "HTTP/1.1 200 OK", "a.b-c_d/e", "--", "Straße",
		"K", "\xff\xfeX", "ok OK ok", "+42", "-0", "9223372036854775808", "1_000", " 7", "İstanbul"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		if got, want := tokenize(v), refTokenize(v); !slices.Equal(got, want) {
			t.Fatalf("tokenize(%q) = %q, reference %q", v, got, want)
		}
		n, ok := parseNumber(v)
		want, err := strconv.ParseInt(v, 10, 64)
		if ok != (err == nil) || ok && n != want {
			t.Fatalf("parseNumber(%q) = %d, %v; ParseInt %d, %v", v, n, ok, want, err)
		}
	})
}

// TestVerifyFiresOnCorruption: each kind of damage to a partition's
// postings is reported.
func TestVerifyFiresOnCorruption(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(p *indexPart)
		want   string
	}{
		{"posting dropped", func(p *indexPart) {
			p.inverted["services.protocol"]["http"] = p.inverted["services.protocol"]["http"][1:]
		}, "services.protocol:\"http\" lists"},
		{"stray posting", func(p *indexPart) { p.inverted["labels"]["ics"] = append(p.inverted["labels"]["ics"], 1) }, "labels:\"ics\" lists"},
		{"posting missing", func(p *indexPart) { delete(p.inverted["services.http.title"], "login") }, "services.http.title:\"login\" is missing"},
		{"unsorted list", func(p *indexPart) { l := p.inverted["location.country"]["us"]; l[0], l[1] = l[1], l[0] }, "location.country:\"us\" lists"},
		{"numeric entry dropped", func(p *indexPart) { p.numeric["services.port"] = p.numeric["services.port"][1:] }, "numeric column services.port holds"},
		{"live lost", func(p *indexPart) { p.live = p.live[1:] }, "live list"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix := buildIndex(t)
			if err := ix.Verify(); err != nil {
				t.Fatalf("intact index: %v", err)
			}
			tc.damage(ix.parts[0])
			if err := ix.Verify(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Verify = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
