package search

// evalAnd evaluates a conjunction by streaming every candidate from the
// smallest include list through the remaining include and exclude lists with
// monotone cursors — one output allocation, no intermediate sets. Children
// are still evaluated in estimated-selectivity order so an empty conjunct
// short-circuits before the more expensive ones run.
func (p *indexPart) evalAnd(a planAnd) []uint32 {
	var incBuf [8][]uint32
	inc := incBuf[:0]
	if len(a.include) == 0 {
		// A conjunction of only negations filters the whole live set.
		inc = append(inc, p.live)
	} else {
		var orderBuf, estBuf [8]int
		order, ests := orderBuf[:0], estBuf[:0]
		for i, c := range a.include {
			order = append(order, i)
			ests = append(ests, p.estimate(c))
		}
		// Stable insertion sort on the estimates (sort.SliceStable's order
		// without the closure alloc).
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && ests[order[j]] < ests[order[j-1]]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		for _, idx := range order {
			r := p.evalPlan(a.include[idx])
			if len(r) == 0 {
				return nil
			}
			inc = append(inc, r)
		}
	}
	var excBuf [8][]uint32
	exc := excBuf[:0]
	for _, c := range a.exclude {
		if r := p.evalPlan(c); len(r) > 0 {
			exc = append(exc, r)
		}
	}
	if len(inc) == 1 && len(exc) == 0 {
		// Alias return: the caller treats plan results as read-only.
		return inc[0]
	}
	// Estimates bound result sizes; the evaluated lengths are exact. Walk
	// the truly smallest list so the fused pass touches the fewest heads.
	for i := 1; i < len(inc); i++ {
		for j := i; j > 0 && len(inc[j]) < len(inc[j-1]); j-- {
			inc[j], inc[j-1] = inc[j-1], inc[j]
		}
	}
	return fuseAndNot(inc, exc)
}

// fuseAndNot returns (inc[0] ∩ inc[1] ∩ …) \ (exc[0] ∪ exc[1] ∪ …) with a
// single output allocation. Every list is sorted ascending; include lists
// are non-empty and inc is ordered smallest-first.
func fuseAndNot(inc, exc [][]uint32) []uint32 {
	drv, rest := inc[0], inc[1:]
	out := make([]uint32, 0, len(drv))
	if len(rest) == 0 {
		// Pure AND-NOT: cascade tight two-pointer subtractions through the
		// one output buffer, compacting in place after the first pass.
		out = diffAppend(out, drv, exc[0])
		for _, l := range exc[1:] {
			if len(out) == 0 {
				return out
			}
			out = diffInPlace(out, l)
		}
		return out
	}
	// k-way intersection: stream driver candidates through galloping monotone
	// cursors (selective drivers skip most of the bigger lists in O(log gap)
	// per candidate), then filter survivors against the excludes.
	var ciBuf, ceBuf [8]int
	ci, ce := ciBuf[:0], ceBuf[:0]
	for range rest {
		ci = append(ci, 0)
	}
	for range exc {
		ce = append(ce, 0)
	}
outer:
	for _, v := range drv {
		for k, l := range rest {
			j := gallop(l, ci[k], v)
			ci[k] = j
			if j == len(l) {
				// An include list ran out: no later candidate can match.
				return out
			}
			if l[j] != v {
				continue outer
			}
		}
		for k, l := range exc {
			j := gallop(l, ce[k], v)
			ce[k] = j
			if j < len(l) && l[j] == v {
				continue outer
			}
		}
		out = append(out, v)
	}
	return out
}

// gallop returns the smallest index j' >= j with l[j'] >= v (or len(l)):
// exponential probe from the cursor, then binary search inside the
// overshot window — O(log gap), and ~2 comparisons when the gap is 0 or 1.
func gallop(l []uint32, j int, v uint32) int {
	if j >= len(l) || l[j] >= v {
		return j
	}
	step := 1
	for j+step < len(l) && l[j+step] < v {
		j += step
		step <<= 1
	}
	lo, hi := j+1, j+step
	if hi > len(l) {
		hi = len(l)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// diffAppend appends a \ b onto dst (two-pointer over sorted inputs).
func diffAppend(dst, a, b []uint32) []uint32 {
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j >= len(b) || b[j] != v {
			dst = append(dst, v)
		}
	}
	return dst
}

// diffInPlace compacts s to s \ b without allocating.
func diffInPlace(s, b []uint32) []uint32 {
	w, j := 0, 0
	for _, v := range s {
		for j < len(b) && b[j] < v {
			j++
		}
		if j >= len(b) || b[j] != v {
			s[w] = v
			w++
		}
	}
	return s[:w]
}
