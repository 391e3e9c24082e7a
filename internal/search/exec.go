package search

import (
	"math"
	"sort"
	"strings"

	"censysmap/internal/entity"
)

// Search parses and executes a query, returning matching entity IDs sorted.
func (ix *Index) Search(query string) ([]string, error) {
	ids, _, err := ix.SearchPage(query, 0)
	return ids, err
}

// SearchPage parses and executes a query, returning the first limit matching
// entity IDs sorted (all of them when limit <= 0) and the total match count.
func (ix *Index) SearchPage(query string, limit int) (ids []string, total int, err error) {
	q, err := ix.parseCached(query)
	if err != nil {
		return nil, 0, err
	}
	if limit <= 0 {
		limit = math.MaxInt
	}
	ids, total = ix.execute(q, limit)
	return ids, total, nil
}

// parseCached compiles a query through the prepared-statement cache: a
// repeated query string skips lexing, parsing, and planning entirely.
// Compiled queries are immutable, so one *Query is safely shared by
// concurrent executions.
func (ix *Index) parseCached(query string) (*Query, error) {
	ix.planMu.Lock()
	q := ix.plans[query]
	ix.planMu.Unlock()
	if q != nil {
		ix.planHits.Add(1)
		return q, nil
	}
	ix.planMisses.Add(1)
	q, err := ParseQuery(query)
	if err != nil {
		return nil, err
	}
	ix.planMu.Lock()
	if len(ix.plans) >= maxCacheEntries {
		ix.plans = make(map[string]*Query)
	}
	ix.plans[query] = q
	ix.planMu.Unlock()
	return q, nil
}

// SearchHosts is Search returning a private clone of each matched host record
// (the Go-API path; the HTTP routes emit HostsJSON's shared bytes instead).
func (ix *Index) SearchHosts(query string) ([]*entity.Host, error) {
	ids, err := ix.Search(query)
	if err != nil {
		return nil, err
	}
	hosts := make([]*entity.Host, 0, len(ids))
	for _, id := range ids {
		if h := ix.Host(id); h != nil {
			hosts = append(hosts, h)
		}
	}
	return hosts, nil
}

// execute runs a compiled query. Partitions hold disjoint document sets and
// every query operator is a per-document predicate, so the query is
// evaluated against each partition in turn and the pre-sorted per-partition
// results are k-way merged — the merged query path over the sharded index.
// Only the first n IDs are merged: total is the summed result length, so a
// page or a count never pays for the matches it does not return. k is the
// partition count (small), so a linear min-head scan beats a heap, and the
// disjoint sets need no dedupe.
func (ix *Index) execute(q *Query, n int) (ids []string, total int) {
	lists := make([][]string, len(ix.parts))
	for i, p := range ix.parts {
		lists[i] = ix.partQuery(p, q)
		total += len(lists[i])
	}
	n = min(n, total)
	ids = make([]string, 0, n)
	for len(ids) < n {
		m := -1
		for i, l := range lists {
			if len(l) > 0 && (m < 0 || l[0] < lists[m][0]) {
				m = i
			}
		}
		ids = append(ids, lists[m][0])
		lists[m] = lists[m][1:]
	}
	return ids, total
}

// Count returns the number of matches, merging none of them.
func (ix *Index) Count(query string) (int, error) {
	q, err := ix.parseCached(query)
	if err != nil {
		return 0, err
	}
	_, total := ix.execute(q, 0)
	return total, nil
}

// CertLocations returns the "entity port/transport" locators of every active
// service presenting the certificate fingerprint, sorted — the threat-hunting
// pivot of paper §5.2 ("what IPs has certificate X been seen on?"). It reads
// the services.cert_sha256 postings and keeps the services whose fingerprint
// is fp exactly. A service pending removal has no fragment, so it is not
// located: "current" means the same for the pivot as for search and export.
func (ix *Index) CertLocations(fp string) []string {
	tok := strings.ToLower(fp)
	var out []string
	for _, p := range ix.parts {
		p.mu.RLock()
		for _, lid := range p.inverted["services.cert_sha256"][tok] {
			d := p.byLocal[lid]
			for _, f := range d.frags[firstServiceFrag:] {
				if d.service(f.key).CertSHA256 == fp {
					out = append(out, d.id+" "+f.key.String())
				}
			}
		}
		p.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// partQuery answers a query on one partition: cache probe, then plan
// evaluation under the read lock, then cache fill.
func (ix *Index) partQuery(p *indexPart, q *Query) []string {
	useCache := !ix.cacheOff.Load()
	if useCache {
		if ids, ok := p.cachedIDs(q.key); ok {
			ix.hits.Add(1)
			return ids
		}
		ix.misses.Add(1)
	}
	p.mu.RLock()
	gen := p.gen.Load()
	locals := p.evalPlan(q.plan)
	ids := make([]string, len(locals))
	for i, lid := range locals {
		ids[i] = p.byLocal[lid].id
	}
	p.mu.RUnlock()
	// Local IDs are dense ints in insertion order, not lexicographic order;
	// the contract is sorted entity IDs.
	sort.Strings(ids)
	if useCache {
		p.storeIDs(q.key, gen, ids)
	}
	return ids
}

// --- plan evaluation (caller holds the partition read lock) ---

// evalPlan returns the sorted local-ID result for a plan node. Returned
// slices may alias live posting lists and must be treated as read-only;
// every set operator allocates its output.
func (p *indexPart) evalPlan(n planNode) []uint32 {
	switch t := n.(type) {
	case planTerm:
		return p.evalTerm(t)
	case planAnd:
		return p.evalAnd(t)
	case planOr:
		var acc []uint32
		for i, c := range t.children {
			if i == 0 {
				acc = p.evalPlan(c)
				continue
			}
			acc = unionU32(acc, p.evalPlan(c))
		}
		return acc
	case planNot:
		return diffU32(p.live, p.evalPlan(t.child))
	default:
		return nil
	}
}

// estimate bounds a node's result size cheaply (posting-list lengths for
// terms, column entry counts for ranges, partition size for scans). It only
// orders conjuncts; correctness never depends on it.
func (p *indexPart) estimate(n planNode) int {
	switch t := n.(type) {
	case planTerm:
		switch {
		case t.isRange:
			i, j := p.numeric[t.field].bounds(t.lo, t.hi)
			return j - i
		case t.phrase, t.prefix:
			return len(p.live)
		case t.field == "":
			sum := 0
			for _, f := range textFieldList {
				sum += len(p.inverted[f][t.value])
			}
			return sum
		default:
			return len(p.inverted[t.field][t.value])
		}
	case planAnd:
		min := len(p.live)
		for _, c := range t.include {
			if e := p.estimate(c); e < min {
				min = e
			}
		}
		return min
	case planOr:
		sum := 0
		for _, c := range t.children {
			sum += p.estimate(c)
		}
		return sum
	case planNot:
		return len(p.live)
	default:
		return 0
	}
}

// evalTerm answers a single match primitive as a sorted local-ID list.
func (p *indexPart) evalTerm(t planTerm) []uint32 {
	switch {
	case t.isRange:
		return p.numeric[t.field].rangeDocs(t.lo, t.hi)
	case t.prefix:
		return p.lookupPrefix(t.field, t.value)
	case t.phrase:
		return p.lookupPhrase(t.field, t.value)
	case t.field == "":
		var acc []uint32
		for _, f := range textFieldList {
			if list := p.inverted[f][t.value]; len(list) > 0 {
				acc = unionU32(acc, list)
			}
		}
		return acc
	default:
		return p.inverted[t.field][t.value]
	}
}

// lookupPrefix unions the posting lists of every token with the given
// (pre-lowercased) prefix in field, or in all text fields when field is
// empty.
func (p *indexPart) lookupPrefix(field, prefix string) []uint32 {
	var acc []uint32
	scan := func(f string) {
		for tok, list := range p.inverted[f] {
			if strings.HasPrefix(tok, prefix) {
				acc = unionU32(acc, list)
			}
		}
	}
	if field != "" {
		scan(field)
		return acc
	}
	for _, f := range textFieldList {
		scan(f)
	}
	return acc
}

// lookupPhrase scans live documents in order for a (pre-lowercased)
// substring match against the fragments' lowercased values — no per-query
// lowercasing. A bare phrase (empty field) searches the text fields. Output
// is sorted by construction.
func (p *indexPart) lookupPhrase(field, phrase string) []uint32 {
	var acc []uint32
	for _, lid := range p.live {
		if p.byLocal[lid].containsPhrase(field, phrase) {
			acc = append(acc, lid)
		}
	}
	return acc
}

func (d *document) containsPhrase(field, phrase string) bool {
	return d.anyEntry(func(e *entry) bool {
		return (e.field == field || field == "" && e.text) && strings.Contains(e.toks[0], phrase)
	})
}
