// Package shard provides the one stable shard-routing function shared by
// every partitioned layer of the write path: the CQRS processor, the journal
// store, the search index, and the core pipeline's bookkeeping maps. All of
// them must agree on where an entity lives so that one entity's events,
// state, journal rows, and index postings are always owned by the same shard
// (and therefore the same lock and, during a tick, the same worker).
package shard

import "censysmap/internal/draw"

// Of maps an entity key (e.g. an IP address string) to a shard index in
// [0, n). It is a FNV-1a hash, stable across processes and runs — shard
// assignment is part of the deterministic behaviour of the pipeline.
func Of(key string, n int) int {
	if n <= 1 {
		return 0
	}
	return int(draw.StrHash(key) % uint64(n))
}
