// Package search implements the interactive search interface of paper §5.3:
// an inverted index over the current state of every entity, queried with a
// Lucene-like language (field references, boolean operators, phrases,
// wildcards, numeric ranges). It stands in for the Elasticsearch tier.
//
// The execution engine is built around compressed integer postings: each
// partition keeps a dense docID dictionary (entity ID → uint32) and stores
// every posting list as a sorted []uint32, so boolean operators are linear
// merges; numeric fields are sorted (value, doc) columns, so range queries
// are two binary searches; and documents carry their lowercased raw values
// and token lists, so phrase matching and removal never re-lowercase or
// re-tokenize. A query planner (planner.go) and a generation-stamped query
// cache (cache.go) sit on top. See DESIGN.md, "Read path".
package search

import (
	"encoding/json"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"censysmap/internal/entity"
	"censysmap/internal/shard"
)

// Index is the searchable view of current entity state. It is maintained
// incrementally from write-side events (hosts are upserted as they change
// and removed as they disappear) and is safe for concurrent use.
//
// The index is partitioned: documents are striped over N independently
// locked partitions by a stable hash of the entity ID (the same routing the
// CQRS processor and journal use), so index maintenance driven from
// different processor shards does not serialize on one lock. Queries
// evaluate per partition and merge — every query operator is a per-document
// predicate, so a union of per-partition results is exactly the global
// result.
type Index struct {
	parts []*indexPart

	// cacheOff disables the per-partition query cache (benchmarks measuring
	// raw evaluation; differential tests exercising both paths).
	cacheOff atomic.Bool
	// hits/misses count query-cache outcomes across all partitions.
	hits, misses atomic.Uint64
	// planHits/planMisses count prepared-statement (plan) cache outcomes.
	planHits, planMisses atomic.Uint64

	// plans caches compiled queries by raw query text — the prepared-
	// statement cache. Compilation is pure (independent of index contents),
	// so entries never go stale and survive the result cache's generation
	// churn.
	planMu sync.Mutex
	plans  map[string]*Query
}

// indexPart is one independently locked stripe of the index.
type indexPart struct {
	mu sync.RWMutex

	// docID dictionary: entity ID ↔ dense partition-local uint32. Entries
	// are never recycled — a re-upserted entity keeps its local ID — so the
	// dictionary is bounded by the number of distinct entities ever seen.
	idOf    map[string]uint32
	byLocal []*document // local ID -> live document (nil when removed)

	// live is the sorted local-ID list of present documents: the base set
	// for NOT complements and the scan order for phrase evaluation.
	live []uint32

	docs map[string]*document
	// inverted maps field -> token -> sorted local-ID posting list.
	inverted map[string]map[string][]uint32
	// numeric maps field -> sorted (value, doc) column.
	numeric map[string]numCol

	// gen counts mutations; the query cache stamps entries with it. Bumped
	// under mu (write), read atomically by the cache probe.
	gen atomic.Uint64

	cacheMu sync.Mutex
	cache   map[string]cacheEntry
}

// document keeps the per-entity state needed for evaluation and teardown. It
// is immutable once posted: Upsert replaces a document, never edits it, which
// is what lets it carry its host's wire bytes without their going stale.
type document struct {
	id    string
	local uint32
	// fields holds raw (not tokenized) values per field, multi-valued.
	fields map[string][]string
	// lowered holds the lowercased raw values, precomputed at Upsert so
	// phrase queries stop re-lowercasing per evaluation.
	lowered map[string][]string
	// tokens holds the deduped token list actually posted per field, so
	// removal reverses the postings without re-running Tokenize.
	tokens map[string][]string
	// numbers holds the deduped numeric values entered per field column.
	numbers map[string][]int64
	host    *entity.Host
	// rendered is json.Marshal(host), set by the first read that emits it
	// (see render) — not at Upsert, because most documents are replaced
	// before anyone reads them.
	rendered atomic.Pointer[[]byte]
}

// render returns the document's canonical JSON, marshalling it on first use.
// Two racing first readers marshal the same immutable host and store
// identical bytes, so either store may win.
func (d *document) render() ([]byte, error) {
	if b := d.rendered.Load(); b != nil {
		return *b, nil
	}
	b, err := json.Marshal(d.host)
	if err != nil {
		return nil, err
	}
	d.rendered.Store(&b)
	return b, nil
}

// NewIndex creates an empty single-partition index.
func NewIndex() *Index { return NewPartitioned(1) }

// NewPartitioned creates an empty index striped over n partitions
// (n <= 1 gives one partition).
func NewPartitioned(n int) *Index {
	if n < 1 {
		n = 1
	}
	ix := &Index{parts: make([]*indexPart, n), plans: make(map[string]*Query)}
	for i := range ix.parts {
		ix.parts[i] = &indexPart{
			idOf:     make(map[string]uint32),
			docs:     make(map[string]*document),
			inverted: make(map[string]map[string][]uint32),
			numeric:  make(map[string]numCol),
			cache:    make(map[string]cacheEntry),
		}
	}
	return ix
}

// Partitions reports the stripe count.
func (ix *Index) Partitions() int { return len(ix.parts) }

func (ix *Index) part(id string) *indexPart {
	return ix.parts[shard.Of(id, len(ix.parts))]
}

// textFields are searched by bare (fieldless) terms.
var textFields = map[string]bool{
	"services.banner": true, "services.http.title": true,
	"services.http.server": true, "as.org": true, "labels": true,
	"services.protocol": true, "software.product": true,
}

// textFieldList is textFields in sorted order, for deterministic iteration.
var textFieldList = func() []string {
	out := make([]string, 0, len(textFields))
	for f := range textFields {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}()

// Tokenize lowercases and splits a value into index tokens; the full
// lowercased value is always included as a token for exact matches.
func Tokenize(v string) []string {
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

// Flatten converts a host record into indexable (field, values) pairs —
// the document schema of the search tier.
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

// buildDocument precomputes everything a document needs for evaluation and
// teardown: lowercased values, deduped per-field tokens, deduped numbers.
func buildDocument(id string, h *entity.Host) *document {
	doc := &document{
		id:      id,
		fields:  Flatten(h),
		lowered: make(map[string][]string),
		tokens:  make(map[string][]string),
		numbers: make(map[string][]int64),
		host:    h.Clone(),
	}
	for field, values := range doc.fields {
		lows := make([]string, len(values))
		var toks []string
		seenTok := make(map[string]bool)
		for i, v := range values {
			lows[i] = strings.ToLower(v)
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				doc.numbers[field] = appendUniqueInt64(doc.numbers[field], n)
			}
			for _, tok := range Tokenize(v) {
				if !seenTok[tok] {
					seenTok[tok] = true
					toks = append(toks, tok)
				}
			}
		}
		doc.lowered[field] = lows
		doc.tokens[field] = toks
	}
	return doc
}

func appendUniqueInt64(s []int64, v int64) []int64 {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// localID returns the partition-local dense ID for an entity, allocating on
// first sight. Caller holds the write lock.
func (p *indexPart) localID(id string) uint32 {
	if lid, ok := p.idOf[id]; ok {
		return lid
	}
	lid := uint32(len(p.byLocal))
	p.idOf[id] = lid
	p.byLocal = append(p.byLocal, nil)
	return lid
}

// Upsert indexes (or reindexes) a host's current state.
func (ix *Index) Upsert(h *entity.Host) {
	id := h.ID()
	p := ix.part(id)
	doc := buildDocument(id, h)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gen.Add(1)
	p.removeLocked(id)
	lid := p.localID(id)
	doc.local = lid
	for field, toks := range doc.tokens {
		byTok := p.inverted[field]
		if byTok == nil {
			byTok = make(map[string][]uint32)
			p.inverted[field] = byTok
		}
		for _, tok := range toks {
			byTok[tok] = insertU32(byTok[tok], lid)
		}
	}
	for field, ns := range doc.numbers {
		col := p.numeric[field]
		for _, n := range ns {
			col = col.insert(numEntry{val: n, doc: lid})
		}
		p.numeric[field] = col
	}
	p.live = insertU32(p.live, lid)
	p.byLocal[lid] = doc
	p.docs[id] = doc
}

// Remove deletes an entity from the index.
func (ix *Index) Remove(id string) {
	p := ix.part(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.docs[id] == nil {
		return
	}
	p.gen.Add(1)
	p.removeLocked(id)
}

// removeLocked unposts a document using its stored token and number lists —
// no re-tokenization of field values. Caller holds the write lock.
func (p *indexPart) removeLocked(id string) {
	doc := p.docs[id]
	if doc == nil {
		return
	}
	lid := doc.local
	for field, toks := range doc.tokens {
		byTok := p.inverted[field]
		for _, tok := range toks {
			if list := removeU32(byTok[tok], lid); len(list) == 0 {
				delete(byTok, tok)
			} else {
				byTok[tok] = list
			}
		}
		if len(byTok) == 0 {
			delete(p.inverted, field)
		}
	}
	for field, ns := range doc.numbers {
		col := p.numeric[field]
		for _, n := range ns {
			col = col.remove(numEntry{val: n, doc: lid})
		}
		if len(col) == 0 {
			delete(p.numeric, field)
		} else {
			p.numeric[field] = col
		}
	}
	p.live = removeU32(p.live, lid)
	p.byLocal[lid] = nil
	delete(p.docs, id)
}

// DropPartition removes every document in partition i — the degraded-mode
// purge for a quarantined journal partition. The index and journal stripe by
// the same shard hash over the same partition count, so index partition i
// holds exactly the entities of journal partition i.
func (ix *Index) DropPartition(i int) {
	if i < 0 || i >= len(ix.parts) {
		return
	}
	p := ix.parts[i]
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.docs) == 0 {
		return
	}
	p.gen.Add(1)
	ids := make([]string, 0, len(p.docs))
	for id := range p.docs {
		ids = append(ids, id)
	}
	for _, id := range ids {
		p.removeLocked(id)
	}
}

// Len reports the number of indexed entities.
func (ix *Index) Len() int {
	n := 0
	for _, p := range ix.parts {
		p.mu.RLock()
		n += len(p.docs)
		p.mu.RUnlock()
	}
	return n
}

// Host returns the indexed snapshot of an entity.
func (ix *Index) Host(id string) *entity.Host {
	p := ix.part(id)
	p.mu.RLock()
	defer p.mu.RUnlock()
	if d := p.docs[id]; d != nil {
		return d.host.Clone()
	}
	return nil
}

// HostsJSON returns the canonical JSON of the indexed hosts for an entity-ID
// list — json.Marshal of each host, the bytes search and export emit — in
// list order, skipping IDs no longer indexed. Documents are fetched under one
// read lock per partition and rendered outside it, each at most once per
// version: the returned slices are shared by every reader and must not be
// modified.
func (ix *Index) HostsJSON(ids []string) ([]json.RawMessage, error) {
	at := make([]int, len(ids))
	for k, id := range ids {
		at[k] = shard.Of(id, len(ix.parts))
	}
	docs := make([]*document, len(ids))
	for i, p := range ix.parts {
		p.mu.RLock()
		for k, id := range ids {
			if at[k] == i {
				docs[k] = p.docs[id]
			}
		}
		p.mu.RUnlock()
	}
	out := make([]json.RawMessage, 0, len(ids))
	for _, d := range docs {
		if d == nil {
			continue
		}
		b, err := d.render()
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}
