package predict

import (
	"cmp"
	"net/netip"
	"slices"
	"sort"
)

// Topology is the topology-aware prefix selector: a density-ranked prefix
// tree over the hosts the model has confirmed, in the spirit of Klick et
// al.'s population-aware scanning. Observed hosts populate /16 nodes that
// drill down into /24 leaves; Ranked returns the populated /24s ordered by
// observed service density, which is the order Recommend spends its budget
// in — probes concentrate where services demonstrably cluster.
//
// The tree also carries the hard exclusion subtrees (operator opt-outs and
// static config): a /24 covered by an excluded prefix never appears in
// Ranked, and Allowed gates every emitted target individually so exclusions
// narrower than a /24 hold too. The invariant — no recommendation inside an
// excluded prefix, ever — is asserted by TestPredictDiff's wire-level
// recorder and fuzzed by FuzzPrefixExclusion.
//
// Topology is not safe for concurrent use; the Engine serializes access
// under its own lock. All state is commutative counts, so concurrent
// observation order never changes the tree.
type Topology struct {
	roots map[netip.Addr]*prefixNode16
	// excluded holds masked, sorted opt-out prefixes (the exclusion
	// subtrees).
	excluded []netip.Prefix
	// ranked caches Ranked's answer; every change to a count or to the
	// exclusion list resets it to nil. Derived, never serialized.
	ranked []netip.Addr
}

type prefixNode16 struct {
	hosts    int
	services int
	children map[netip.Addr]*prefixNode24
}

type prefixNode24 struct {
	hosts    int
	services int
}

// NewTopology creates an empty tree.
func NewTopology() *Topology {
	return &Topology{roots: make(map[netip.Addr]*prefixNode16)}
}

// net16of returns the /16 base for a /24 base address.
func net16of(n24 netip.Addr) netip.Addr {
	p, _ := n24.Prefix(16)
	return p.Addr()
}

func (t *Topology) node24(n24 netip.Addr) *prefixNode24 {
	n16 := net16of(n24)
	root := t.roots[n16]
	if root == nil {
		root = &prefixNode16{children: make(map[netip.Addr]*prefixNode24)}
		t.roots[n16] = root
	}
	leaf := root.children[n24]
	if leaf == nil {
		leaf = &prefixNode24{}
		root.children[n24] = leaf
	}
	return leaf
}

// ObserveHost records a newly seen host inside the /24 rooted at n24.
func (t *Topology) ObserveHost(n24 netip.Addr) { t.add(n24, 1, 0) }

// ObserveService records a newly confirmed service inside the /24.
func (t *Topology) ObserveService(n24 netip.Addr) { t.add(n24, 0, 1) }

// add counts hosts and services into the /24's leaf and its /16.
func (t *Topology) add(n24 netip.Addr, hosts, services int) {
	leaf := t.node24(n24)
	leaf.hosts += hosts
	leaf.services += services
	root := t.roots[net16of(n24)]
	root.hosts += hosts
	root.services += services
	t.ranked = nil
}

// clearCounts empties the tree and keeps the exclusion subtrees.
func (t *Topology) clearCounts() {
	t.roots = make(map[netip.Addr]*prefixNode16)
	t.ranked = nil
}

// EvictService removes one confirmed service from the /24's density.
func (t *Topology) EvictService(n24 netip.Addr) {
	root := t.roots[net16of(n24)]
	if root == nil {
		return
	}
	if leaf := root.children[n24]; leaf != nil && leaf.services > 0 {
		leaf.services--
		root.services--
		t.ranked = nil
	}
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
	t.ranked = nil
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

// density is one tree node's rank key.
type density struct {
	base            netip.Addr
	hosts, services int
}

// sortByDensity orders nodes by (services, hosts) descending, base address
// as the tiebreak.
func sortByDensity(nodes []density) {
	slices.SortFunc(nodes, func(a, b density) int {
		return cmp.Or(cmp.Compare(b.services, a.services), cmp.Compare(b.hosts, a.hosts),
			a.base.Compare(b.base))
	})
}

// Ranked returns the populated /24 bases in probe-priority order: /16
// subtrees by (services, hosts) descending, then each subtree's /24s the
// same way, base address as the tiebreak. Leaves inside exclusion subtrees
// never appear. The slice is shared by every call until the tree changes;
// callers must not modify it.
func (t *Topology) Ranked() []netip.Addr {
	if t.ranked != nil {
		return t.ranked
	}
	tops := make([]density, 0, len(t.roots))
	for base, root := range t.roots {
		tops = append(tops, density{base: base, hosts: root.hosts, services: root.services})
	}
	sortByDensity(tops)
	out := make([]netip.Addr, 0, t.Tracked24s()) // non-nil even when empty
	var leaves []density
	for _, top := range tops {
		leaves = leaves[:0]
		for base, leaf := range t.roots[top.base].children {
			if t.excluded24(base) {
				continue
			}
			leaves = append(leaves, density{base: base, hosts: leaf.hosts, services: leaf.services})
		}
		sortByDensity(leaves)
		for _, leaf := range leaves {
			out = append(out, leaf.base)
		}
	}
	t.ranked = out
	return out
}

// Tracked24s reports how many populated /24 leaves the tree holds.
func (t *Topology) Tracked24s() int {
	n := 0
	for _, root := range t.roots {
		n += len(root.children)
	}
	return n
}
