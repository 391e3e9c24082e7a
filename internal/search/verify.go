package search

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// Verify checks that the postings are exactly what the documents hold: every
// (field, token) posting and numeric entry is held by some fragment of a live
// document, every fragment entry is posted, posting lists and columns are
// sorted without duplicates, and live is the document set. It returns the
// violations found (at most a few per partition), nil when consistent.
func (ix *Index) Verify() error {
	var errs []error
	for i, p := range ix.parts {
		p.mu.RLock()
		errs = append(errs, p.verify(i)...)
		p.mu.RUnlock()
	}
	return errors.Join(errs...)
}

// verify rebuilds one partition's postings from its documents, in local-ID
// order — so every rebuilt list is strictly ascending — and compares. Caller
// holds the read lock.
func (p *indexPart) verify(part int) []error {
	var errs []error
	bad := func(format string, args ...any) {
		if len(errs) < 8 {
			errs = append(errs, fmt.Errorf("search: partition %d: "+format, append([]any{part}, args...)...))
		}
	}
	var lids []uint32
	want := map[string]map[string][]uint32{}
	wantNum := map[string]numCol{}
	for lid, d := range p.byLocal {
		if d == nil {
			continue
		}
		lids = append(lids, uint32(lid))
		if d.local != uint32(lid) || p.docs[d.id] != d || p.idOf[d.id] != d.local {
			bad("document %s at local ID %d does not resolve to itself", d.id, lid)
		}
		for _, f := range d.frags {
			for _, e := range f.entries {
				if want[e.field] == nil {
					want[e.field] = map[string][]uint32{}
				}
				for _, tok := range e.toks {
					if list := want[e.field][tok]; len(list) == 0 || list[len(list)-1] != uint32(lid) {
						want[e.field][tok] = append(list, uint32(lid))
					}
				}
				if e.isNum {
					wantNum[e.field] = append(wantNum[e.field], numEntry{val: e.num, doc: uint32(lid)})
				}
			}
		}
	}
	if len(lids) != len(p.docs) || !slices.Equal(p.live, lids) {
		bad("live list %v, %d documents by entity ID; the documents are %v", p.live, len(p.docs), lids)
	}

	for field, byTok := range p.inverted {
		for tok, got := range byTok {
			if w, ok := want[field][tok]; !ok || !slices.Equal(got, w) {
				bad("posting %s:%q lists %v; the documents holding it are %v", field, tok, got, w)
			}
			delete(want[field], tok)
		}
	}
	for field, byTok := range want {
		for tok, w := range byTok {
			bad("posting %s:%q is missing; documents %v hold it", field, tok, w)
		}
	}

	for field, col := range wantNum {
		slices.SortFunc(col, func(a, b numEntry) int { return cmp.Or(cmp.Compare(a.val, b.val), cmp.Compare(a.doc, b.doc)) })
		wantNum[field] = slices.Compact(col)
	}
	for field, got := range p.numeric {
		if w, ok := wantNum[field]; !ok || !slices.Equal(got, w) {
			bad("numeric column %s holds %v; the documents enter %v", field, got, w)
		}
		delete(wantNum, field)
	}
	for field, w := range wantNum {
		bad("numeric column %s is missing; the documents enter %v", field, w)
	}
	return errs
}
