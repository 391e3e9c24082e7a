package search

import "sort"

// This file holds the compressed-postings primitives of the read path: every
// posting list is a sorted []uint32 of partition-local document IDs, so the
// boolean operators are linear merges over sorted slices instead of hash-map
// churn, and numeric fields are sorted (value, doc) columns so range lookups
// are two binary searches. See DESIGN.md, "Read path".

// insertU32 inserts v into sorted slice s, keeping it sorted and deduped.
func insertU32(s []uint32, v uint32) []uint32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// removeU32 removes v from sorted slice s if present.
func removeU32(s []uint32, v uint32) []uint32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i >= len(s) || s[i] != v {
		return s
	}
	return append(s[:i], s[i+1:]...)
}

// unionU32 returns a ∪ b as a new sorted, deduped slice.
func unionU32(a, b []uint32) []uint32 {
	if len(a) == 0 {
		return append([]uint32(nil), b...)
	}
	if len(b) == 0 {
		return append([]uint32(nil), a...)
	}
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// diffU32 returns a \ b as a new sorted slice.
func diffU32(a, b []uint32) []uint32 {
	if len(a) == 0 {
		return nil
	}
	if len(b) == 0 {
		return append([]uint32(nil), a...)
	}
	out := make([]uint32, 0, len(a))
	i, j := 0, 0
	for i < len(a) {
		for j < len(b) && b[j] < a[i] {
			j++
		}
		if j >= len(b) || b[j] != a[i] {
			out = append(out, a[i])
		}
		i++
	}
	return out
}

// numEntry is one cell of a numeric column: a field value on a document.
type numEntry struct {
	val int64
	doc uint32
}

// numCol is a per-field numeric column kept sorted by (value, doc). A
// document with k numeric values for the field has k entries.
type numCol []numEntry

func (c numCol) search(e numEntry) int {
	return sort.Search(len(c), func(i int) bool {
		if c[i].val != e.val {
			return c[i].val > e.val
		}
		return c[i].doc >= e.doc
	})
}

// insert adds an entry, keeping the column sorted; duplicate (value, doc)
// entries are collapsed (multi-valued fields are deduped at document build).
func (c numCol) insert(e numEntry) numCol {
	i := c.search(e)
	if i < len(c) && c[i] == e {
		return c
	}
	c = append(c, numEntry{})
	copy(c[i+1:], c[i:])
	c[i] = e
	return c
}

// remove deletes an entry if present.
func (c numCol) remove(e numEntry) numCol {
	i := c.search(e)
	if i >= len(c) || c[i] != e {
		return c
	}
	return append(c[:i], c[i+1:]...)
}

// bounds returns the half-open entry range [i, j) with value in [lo, hi].
func (c numCol) bounds(lo, hi int64) (int, int) {
	i := sort.Search(len(c), func(i int) bool { return c[i].val >= lo })
	j := sort.Search(len(c), func(i int) bool { return c[i].val > hi })
	return i, j
}

// rangeDocs returns the sorted, deduped doc list with a value in [lo, hi] —
// two binary searches plus a walk over only the matching entries.
func (c numCol) rangeDocs(lo, hi int64) []uint32 {
	i, j := c.bounds(lo, hi)
	if i >= j {
		return nil
	}
	out := make([]uint32, 0, j-i)
	for ; i < j; i++ {
		out = append(out, c[i].doc)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	// Dedupe in place (a doc can hold several in-range values).
	w := 0
	for r := 0; r < len(out); r++ {
		if r == 0 || out[r] != out[r-1] {
			out[w] = out[r]
			w++
		}
	}
	return out[:w]
}
