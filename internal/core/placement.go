package core

// Partition placement: the partition — not the process — is the unit of
// placement. A Map's journal, index, and pipeline all stripe entities over
// the same shard.Of space, so a placement that maps partitions to serving
// nodes can route any entity's reads without consulting the write path. The
// interfaces live in internal/lookup (the consumer); core re-exports them so
// the cluster layer and single-node deployments speak one vocabulary without
// an import cycle.

import (
	"censysmap/internal/cqrs"
	"censysmap/internal/journal"
	"censysmap/internal/lookup"
)

// Placement routes partitions to serving nodes; see lookup.Placement.
type Placement = lookup.Placement

// Route is one partition's serving state; see lookup.Route.
type Route = lookup.Route

// SetPlacement installs (or clears, with nil) a partition placement on the
// lookup service: point lookups route to the serving replica's reader and
// quorum health surfaces in the degraded header. The single-node deployment
// never calls this — a nil placement is the degenerate one-node case and
// serves bit-identically to the pre-cluster code path.
func (m *Map) SetPlacement(p Placement) { m.lookupSvc.SetPlacement(p) }

// ReaderOver builds a read path over an arbitrary journal — a follower
// replica's, typically — using this map's enrichment feeds, so replicated
// reads enrich identically to local ones.
func (m *Map) ReaderOver(j *journal.Store) *cqrs.Reader {
	return cqrs.NewReader(j, m.enricher)
}
