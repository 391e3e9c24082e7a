// Package cqrs implements the Command Query Responsibility Segregation
// pipeline of paper §5.2: inbound scans are commands that update entity
// state; state changes are journaled as delta events; read-side queries
// reconstruct entities from snapshot + replay and attach derived context.
//
// The write and read sides share only the journal, so they scale
// independently — essential for a system whose write rate (5B events/day at
// Censys' scale) rivals its read rate.
package cqrs

// Event kinds journaled by the write side. Each is a delta touching one
// service slot; full host state appears only in snapshots. The kind selects
// the payload grammar (payload.go).
const (
	KindServiceFound    = "service_found"
	KindServiceChanged  = "service_changed"
	KindServicePending  = "service_pending"  // refresh failed; eviction timer started
	KindServiceRestored = "service_restored" // pending service answered again
	KindServiceRemoved  = "service_removed"  // evicted after the grace window
)
