package search

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"censysmap/internal/entity"
)

// This file cross-checks the planner/postings engine against a naive
// reference evaluator: scan every document, apply the parsed tree as a
// per-document predicate (exactly the seed engine's semantics), and sort
// the matching IDs. Any divergence — operator rewrite, selectivity
// reordering, cache staleness, partition merge — fails the comparison.

// Flatten converts a host record into indexable (field, values) pairs — the
// document schema of the search tier, written out in one function. The
// index's fragments must hold exactly these values (TestFragmentsMatchFlatten).
func Flatten(h *entity.Host) map[string][]string {
	out := map[string][]string{
		"ip": {h.IP.String()},
	}
	add := func(field, v string) {
		if v != "" {
			out[field] = append(out[field], v)
		}
	}
	if h.Location != nil {
		add("location.country", h.Location.Country)
		add("location.city", h.Location.City)
	}
	if h.AS != nil {
		add("as.number", strconv.FormatUint(uint64(h.AS.Number), 10))
		add("as.name", h.AS.Name)
		add("as.org", h.AS.Org)
	}
	for _, l := range h.Labels {
		add("labels", l)
	}
	for _, v := range h.Vulns {
		add("vulns", v)
	}
	for _, sw := range h.Software {
		add("software.product", sw.Product)
		add("software.vendor", sw.Vendor)
		add("software.version", sw.Version)
		add("software.cpe", sw.CPE())
	}
	for _, svc := range h.ActiveServices() {
		add("services.port", strconv.Itoa(int(svc.Port)))
		add("services.transport", string(svc.Transport))
		add("services.protocol", svc.Protocol)
		add("services.service_name", svc.Protocol) // paper's query syntax alias
		add("services.banner", svc.Banner)
		if svc.TLS {
			add("services.tls", "true")
		}
		add("services.cert_sha256", svc.CertSHA256)
		for k, v := range svc.Attributes {
			add("services."+k, v)
		}
	}
	return out
}

// tokenize lowercases and splits a value into index tokens the way the index
// does; the full lowercased value is always the first token.
func tokenize(v string) []string { return appendTokens(nil, strings.ToLower(v)) }

// refTokenize is the reference tokenizer, the oracle of tokenize:
// lowercase, split with strings.FieldsFunc, dedupe through a map.
func refTokenize(v string) []string {
	lower := strings.ToLower(v)
	fields := strings.FieldsFunc(lower, func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '.' || r == '-' || r == '_' || r == '/')
	})
	seen := map[string]bool{lower: true}
	out := []string{lower}
	for _, f := range fields {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

// refDoc is the reference evaluator's view of one document, built through
// the reference Flatten/refTokenize schema.
type refDoc struct {
	id      string
	fields  map[string][]string
	tokens  map[string]map[string]bool
	numbers map[string][]int64
}

func refDocFrom(h *entity.Host) *refDoc {
	d := &refDoc{
		id:      h.ID(),
		fields:  Flatten(h),
		tokens:  make(map[string]map[string]bool),
		numbers: make(map[string][]int64),
	}
	for field, values := range d.fields {
		set := make(map[string]bool)
		for _, v := range values {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				d.numbers[field] = append(d.numbers[field], n)
			}
			for _, tok := range refTokenize(v) {
				set[tok] = true
			}
		}
		d.tokens[field] = set
	}
	return d
}

func refMatch(d *refDoc, n queryNode) bool {
	switch t := n.(type) {
	case andNode:
		for _, c := range t.children {
			if !refMatch(d, c) {
				return false
			}
		}
		return true
	case orNode:
		for _, c := range t.children {
			if refMatch(d, c) {
				return true
			}
		}
		return false
	case notNode:
		return !refMatch(d, t.child)
	case termNode:
		return refTerm(d, t)
	default:
		return false
	}
}

func refTerm(d *refDoc, t termNode) bool {
	fieldsOf := func() []string {
		if t.field != "" {
			return []string{t.field}
		}
		return textFieldList
	}
	switch {
	case t.isRange:
		for _, n := range d.numbers[t.field] {
			if n >= t.lo && n <= t.hi {
				return true
			}
		}
		return false
	case t.prefix:
		prefix := strings.ToLower(t.value)
		for _, f := range fieldsOf() {
			for tok := range d.tokens[f] {
				if strings.HasPrefix(tok, prefix) {
					return true
				}
			}
		}
		return false
	case t.phrase:
		phrase := strings.ToLower(t.value)
		for _, f := range fieldsOf() {
			for _, v := range d.fields[f] {
				if strings.Contains(strings.ToLower(v), phrase) {
					return true
				}
			}
		}
		return false
	default:
		token := strings.ToLower(t.value)
		for _, f := range fieldsOf() {
			if d.tokens[f][token] {
				return true
			}
		}
		return false
	}
}

// refSearch is the oracle: evaluate the parsed tree over every doc.
func refSearch(docs []*refDoc, q *Query) []string {
	out := []string{}
	for _, d := range docs {
		if refMatch(d, q.root) {
			out = append(out, d.id)
		}
	}
	sort.Strings(out)
	return out
}

// genHost builds a deterministic pseudo-random host.
func genHost(rng *rand.Rand, i int) *entity.Host {
	countries := []string{"US", "CN", "DE", "FR", "JP", "BR"}
	protos := []string{"HTTP", "SSH", "FTP", "MODBUS", "RDP", "DNS"}
	titles := []string{"Welcome to nginx!", "MOVEit Transfer", "Login", "Router Admin", "Console 7", ""}
	h := entity.NewHost(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}))
	h.Location = &entity.Location{Country: countries[rng.Intn(len(countries))]}
	h.AS = &entity.AS{Number: uint32(64000 + rng.Intn(32)), Org: fmt.Sprintf("Org %d", rng.Intn(8))}
	if rng.Intn(4) == 0 {
		h.Labels = []string{"ics"}
	}
	nsvc := 1 + rng.Intn(3)
	for s := 0; s < nsvc; s++ {
		svc := &entity.Service{
			Port:      uint16(1 + rng.Intn(9000)),
			Transport: entity.TCP,
			Protocol:  protos[rng.Intn(len(protos))],
			Verified:  true,
			Banner:    fmt.Sprintf("banner item %d", rng.Intn(40)),
		}
		if title := titles[rng.Intn(len(titles))]; title != "" {
			svc.Attributes = map[string]string{"http.title": title}
		}
		if rng.Intn(3) == 0 {
			svc.TLS = true
			svc.CertSHA256 = fmt.Sprintf("%08x", rng.Uint32())
		}
		h.SetService(svc)
	}
	return h
}

// genQuery builds a random syntactically valid query.
func genQuery(rng *rand.Rand, depth int) string {
	terms := []string{
		`services.protocol: HTTP`, `services.protocol: modbus`,
		`location.country: US`, `location.country: DE`,
		`labels: ics`, `services.tls: true`,
		`as.number: 64007`, `ip: 10.0.0.3`,
		`services.port: [1 TO 500]`, `services.port: [4000 TO 9000]`,
		`as.number: [64000 TO 64010]`, `services.port: [200 TO 100]`,
		`"MOVEit Transfer"`, `services.http.title: "Console 7"`,
		`services.http.title: "router"`, `banner`, `nginx*`,
		`services.banner: "banner item 3"`, `services.http.server: Micro*`,
		`Router*`, `services.protocol: R*`, `org`, `as.org: "Org 5"`,
	}
	if depth <= 0 || rng.Intn(3) == 0 {
		t := terms[rng.Intn(len(terms))]
		if rng.Intn(5) == 0 {
			return "not " + t
		}
		return t
	}
	left, right := genQuery(rng, depth-1), genQuery(rng, depth-1)
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("(%s) and (%s)", left, right)
	case 1:
		return fmt.Sprintf("(%s) or (%s)", left, right)
	case 2:
		return fmt.Sprintf("not (%s)", left)
	default:
		return fmt.Sprintf("(%s) and not (%s)", left, right)
	}
}

// checkQuery asserts the engine and the oracle agree on one query, on both
// the cold and the cached path.
func checkQuery(t *testing.T, ix *Index, docs []*refDoc, query string) {
	t.Helper()
	q, err := ParseQuery(query)
	if err != nil {
		t.Fatalf("ParseQuery(%q): %v", query, err)
	}
	want := refSearch(docs, q)
	got, total := ix.execute(q, math.MaxInt)
	if !reflect.DeepEqual(got, want) || total != len(want) {
		t.Fatalf("query %q:\n engine %v (total %d)\n oracle %v\n (plan %s)", query, got, total, want, q.key)
	}
	if again, _ := ix.execute(q, math.MaxInt); !reflect.DeepEqual(again, want) {
		t.Fatalf("query %q: cached re-run diverged: %v vs %v", query, again, want)
	}
	checkPages(t, "engine", ix, query, want)
}

// checkPages holds the limited search and the count to the oracle's sorted
// IDs: at limit 0 (everything), 1, half the matches and more than all of
// them, the page is want's prefix and the total is len(want).
func checkPages(t *testing.T, what string, ix *Index, query string, want []string) {
	t.Helper()
	for _, limit := range []int{0, 1, len(want) / 2, len(want) + 1} {
		ids, total, err := ix.SearchPage(query, limit)
		if err != nil {
			t.Fatalf("%s: SearchPage(%q, %d): %v", what, query, limit, err)
		}
		n := len(want)
		if limit > 0 {
			n = min(n, limit)
		}
		if total != len(want) || !reflect.DeepEqual(ids, want[:n]) {
			t.Fatalf("%s: SearchPage(%q, %d) = %v, total %d\n oracle %v, total %d",
				what, query, limit, ids, total, want[:n], len(want))
		}
	}
	if n, err := ix.Count(query); err != nil || n != len(want) {
		t.Fatalf("%s: Count(%q) = %d, %v; oracle %d", what, query, n, err, len(want))
	}
}

// TestDifferentialGenerated drives generated indexes through generated and
// hand-picked queries across partition counts, including the NOT/range/
// prefix/phrase edge cases, with mutation (remove + reindex) in between.
func TestDifferentialGenerated(t *testing.T) {
	edgeQueries := []string{
		`not services.protocol: HTTP`,
		`not not services.protocol: HTTP`,
		`not services.protocol: HTTP and not services.protocol: SSH`,
		`not (services.protocol: HTTP or location.country: US)`,
		`not services.protocol: HTTP or not location.country: US`,
		`services.port: [0 TO 0]`,
		`services.port: [-5 TO 5]`,
		`services.port: [500 TO 100]`, // inverted bounds: matches nothing
		`services.port: [1 TO 65535] and not services.tls: true`,
		`nosuchfield: x`, `nosuchfield: [1 TO 2]`, `nosuchfield: x*`,
		`services.http.title: ""`, // empty phrase: any doc with the field
		`zzz*`,                    // prefix matching nothing
		`services.protocol: HTTP and services.protocol: HTTP`, // dupe conjunct
		`location.country: US or location.country: US`,        // dupe disjunct
		`(a or not a)`, // tautology over a term matching nothing
	}
	for _, cfg := range []struct{ seed, docs, parts int }{
		{1, 30, 1}, {2, 30, 4}, {3, 120, 1}, {4, 120, 8}, {5, 400, 4},
	} {
		t.Run(fmt.Sprintf("seed%d_docs%d_parts%d", cfg.seed, cfg.docs, cfg.parts), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(cfg.seed)))
			ix := NewPartitioned(cfg.parts)
			hosts := make([]*entity.Host, cfg.docs)
			for i := range hosts {
				hosts[i] = genHost(rng, i)
				ix.Upsert(hosts[i])
			}
			// Mutate: remove a third, reindex (changed) another third —
			// postings teardown and docID reuse must stay exact.
			docs := make(map[string]*refDoc)
			for i, h := range hosts {
				switch i % 3 {
				case 0:
					ix.Remove(h.ID())
				case 1:
					h2 := genHost(rng, i)
					// Same address, fresh state: a reindex.
					h2.IP = h.IP
					ix.Upsert(h2)
					docs[h2.ID()] = refDocFrom(h2)
				default:
					docs[h.ID()] = refDocFrom(h)
				}
			}
			var refDocs []*refDoc
			for _, d := range docs {
				refDocs = append(refDocs, d)
			}
			for _, q := range edgeQueries {
				checkQuery(t, ix, refDocs, q)
			}
			for i := 0; i < 120; i++ {
				checkQuery(t, ix, refDocs, genQuery(rng, 3))
			}
			// The same queries with the cache off must also agree.
			ix.SetQueryCache(false)
			rng2 := rand.New(rand.NewSource(int64(cfg.seed) + 1000))
			for i := 0; i < 40; i++ {
				checkQuery(t, ix, refDocs, genQuery(rng2, 3))
			}
		})
	}
}

// TestDifferentialCacheInvalidation interleaves queries and writes: a cached
// result must never survive a mutation of its partition — a new host, a
// removal, or a one-service edit that swaps a single fragment of a document.
func TestDifferentialCacheInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ix := NewPartitioned(4)
	hosts := make(map[string]*entity.Host)
	docs := make(map[string]*refDoc)
	queries := []string{
		`services.protocol: HTTP`,
		`services.protocol: HTTP and not services.tls: true`,
		`services.port: [1 TO 4000]`,
		`not location.country: US`,
		`services.tls: true`,
		`services.banner: "banner item 3"`,
		`services.http.title: "console 7"`,
	}
	sortedIDs := func() []string {
		var ids []string
		for id := range docs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		return ids
	}
	check := func(q string) {
		t.Helper()
		var refDocs []*refDoc
		for _, d := range docs {
			refDocs = append(refDocs, d)
		}
		checkQuery(t, ix, refDocs, q)
	}
	for i := 0; i < 60; i++ {
		h := genHost(rng, i)
		ix.Upsert(h)
		hosts[h.ID()], docs[h.ID()] = h, refDocFrom(h)
		if i%7 == 3 {
			// Remove a random earlier host.
			ids := sortedIDs()
			victim := ids[rng.Intn(len(ids))]
			ix.Remove(victim)
			delete(hosts, victim)
			delete(docs, victim)
		}
		check(queries[i%len(queries)])

		// Edit one service of a random host, with every query cached first.
		for _, q := range queries {
			check(q)
		}
		ids := sortedIDs()
		id := ids[rng.Intn(len(ids))]
		h = hosts[id].Clone()
		svcs := h.AllServices()
		svc := svcs[rng.Intn(len(svcs))]
		switch rng.Intn(4) {
		case 0:
			svc.Protocol = []string{"HTTP", "SSH", "MODBUS"}[rng.Intn(3)]
		case 1:
			svc.TLS = !svc.TLS
		case 2:
			svc.Banner = fmt.Sprintf("banner item %d", rng.Intn(6))
		default:
			svc.Attributes = map[string]string{"http.title": fmt.Sprintf("Console %d", rng.Intn(10))}
		}
		ix.Upsert(h)
		hosts[id], docs[id] = h, refDocFrom(h)
		for _, q := range queries {
			check(q)
		}
	}
	if st := ix.Stats(); st.Hits == 0 {
		t.Fatalf("expected some cache hits, stats %+v", st)
	}
}

// fuzzCorpus is the fixed differential corpus for FuzzSearchDifferential:
// one serial and one partitioned index over identical documents, plus the
// reference docs.
var fuzzCorpus struct {
	once sync.Once
	ix1  *Index
	ix4  *Index
	docs []*refDoc
}

func fuzzIndexes() (*Index, *Index, []*refDoc) {
	c := &fuzzCorpus
	c.once.Do(func() {
		rng := rand.New(rand.NewSource(7))
		c.ix1, c.ix4 = NewPartitioned(1), NewPartitioned(4)
		for i := 0; i < 48; i++ {
			h := genHost(rng, i)
			c.ix1.Upsert(h)
			c.ix4.Upsert(h)
			c.docs = append(c.docs, refDocFrom(h))
		}
	})
	return c.ix1, c.ix4, c.docs
}

// FuzzSearchDifferential: any query the parser accepts must produce
// identical sorted IDs from the naive reference evaluator, the serial
// engine, and the 4-way partitioned engine.
func FuzzSearchDifferential(f *testing.F) {
	for _, seed := range []string{
		`services.protocol: HTTP`,
		`location.country: US and services.protocol: HTTP`,
		`location.country: US AND NOT services.protocol: MODBUS`,
		`not not labels: ics`,
		`not services.tls: true and not services.protocol: SSH`,
		`(location.country: US or location.country: DE) and not services.tls: true`,
		`services.port: [1 TO 500]`,
		`services.port: [500 TO 1]`,
		`"MOVEit Transfer"`,
		`services.http.title: "Console 7"`,
		`nginx* or Router*`,
		`banner and not nginx*`,
		`a or not a`,
		`ip: 10.0.0.3`,
		`x: ""`,
		`*`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := ParseQuery(src)
		if err != nil {
			return
		}
		ix1, ix4, docs := fuzzIndexes()
		want := refSearch(docs, q)
		if got, total := ix1.execute(q, math.MaxInt); !reflect.DeepEqual(got, want) || total != len(want) {
			t.Fatalf("serial engine diverged on %q (plan %s):\n engine %v (total %d)\n oracle %v", src, q.key, got, total, want)
		}
		if got, total := ix4.execute(q, math.MaxInt); !reflect.DeepEqual(got, want) || total != len(want) {
			t.Fatalf("partitioned engine diverged on %q (plan %s):\n engine %v (total %d)\n oracle %v", src, q.key, got, total, want)
		}
		checkPages(t, "serial engine", ix1, src, want)
		checkPages(t, "partitioned engine", ix4, src, want)
	})
}
