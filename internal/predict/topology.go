package predict

import (
	"cmp"
	"net/netip"
	"slices"
	"sort"
)

// Topology is the topology-aware prefix selector, in the spirit of Klick et
// al.'s population-aware scanning. It owns only the hard exclusion subtrees
// (operator opt-outs and static config); the densities it ranks by are the
// engine's own tables, read by Ranked: a /24's hosts are its member list in
// hosts24, its services the sum of its net24Ports counts, and a /16 sums its
// /24s. Ranked returns the populated /24s ordered by observed service
// density, which is the order Recommend spends its budget in — probes
// concentrate where services demonstrably cluster.
//
// A /24 covered by an excluded prefix never appears in Ranked, and Allowed
// gates every emitted target individually so exclusions narrower than a /24
// hold too. The invariant — no recommendation inside an excluded prefix,
// ever — is asserted by TestPredictDiff's probe-level recorder and fuzzed by
// FuzzPrefixExclusion.
//
// The zero Topology excludes nothing. It is not safe for concurrent use; the
// Engine serializes access under its own lock.
type Topology struct {
	// excluded holds masked, sorted opt-out prefixes (the exclusion
	// subtrees).
	excluded []netip.Prefix
}

// net16of returns the /16 base for a /24 base address.
func net16of(n24 netip.Addr) netip.Addr {
	p, _ := n24.Prefix(16)
	return p.Addr()
}

// SetExcluded replaces the exclusion subtrees. Prefixes are masked and
// canonically sorted so the pruning below is order-independent.
func (t *Topology) SetExcluded(prefixes []netip.Prefix) {
	out := make([]netip.Prefix, 0, len(prefixes))
	for _, p := range prefixes {
		out = append(out, p.Masked())
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr() != out[j].Addr() {
			return out[i].Addr().Less(out[j].Addr())
		}
		return out[i].Bits() < out[j].Bits()
	})
	t.excluded = out
}

// Allowed reports whether addr is outside every exclusion subtree.
func (t *Topology) Allowed(addr netip.Addr) bool {
	for _, p := range t.excluded {
		if p.Contains(addr) {
			return false
		}
	}
	return true
}

// excluded24 reports whether the whole /24 at base sits inside an exclusion
// subtree (prefixes wider than /24 prune the leaf entirely; narrower ones
// are handled per-address by Allowed).
func (t *Topology) excluded24(base netip.Addr) bool {
	for _, p := range t.excluded {
		if p.Bits() <= 24 && p.Contains(base) {
			return true
		}
	}
	return false
}

// density is one prefix's rank key.
type density struct {
	base            netip.Addr
	hosts, services int
}

// byDensity orders prefixes by (services, hosts) descending, base address as
// the tiebreak.
func byDensity(a, b density) int {
	return cmp.Or(cmp.Compare(b.services, a.services), cmp.Compare(b.hosts, a.hosts),
		a.base.Compare(b.base))
}

// Ranked returns the populated /24 bases of hosts24 in probe-priority order:
// /16s by (services, hosts) descending, then each /16's /24s the same way,
// base address as the tiebreak. A /16's counts include its excluded /24s,
// which themselves never appear. The result is non-nil, even when empty.
func (t *Topology) Ranked(hosts24 map[netip.Addr][]netip.Addr, net24Ports map[netip.Addr]map[uint16]int) []netip.Addr {
	type leaf struct{ n16, n24 density }
	sums := make(map[netip.Addr]density)
	leaves := make([]leaf, 0, len(hosts24))
	for base, members := range hosts24 {
		d := density{base: base, hosts: len(members)}
		for _, c := range net24Ports[base] {
			d.services += c
		}
		n16 := net16of(base)
		top := sums[n16]
		top.base, top.hosts, top.services = n16, top.hosts+d.hosts, top.services+d.services
		sums[n16] = top
		if !t.excluded24(base) {
			leaves = append(leaves, leaf{n24: d})
		}
	}
	for i := range leaves {
		leaves[i].n16 = sums[net16of(leaves[i].n24.base)]
	}
	slices.SortFunc(leaves, func(a, b leaf) int {
		return cmp.Or(byDensity(a.n16, b.n16), byDensity(a.n24, b.n24))
	})
	out := make([]netip.Addr, len(leaves))
	for i, l := range leaves {
		out[i] = l.n24.base
	}
	return out
}
