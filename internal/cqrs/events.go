// Package cqrs implements the Command Query Responsibility Segregation
// pipeline of paper §5.2: inbound scans are commands that update entity
// state; state changes are journaled as delta events; read-side queries
// reconstruct entities from snapshot + replay and attach derived context.
//
// The write and read sides share only the journal, so they scale
// independently — essential for a system whose write rate (5B events/day at
// Censys' scale) rivals its read rate.
package cqrs

import (
	"encoding/json"
	"fmt"
	"time"

	"censysmap/internal/entity"
	"censysmap/internal/journal"
)

// Event kinds journaled by the write side. Each is a delta touching one
// service slot; full host state appears only in snapshots.
const (
	KindServiceFound    = "service_found"
	KindServiceChanged  = "service_changed"
	KindServicePending  = "service_pending"  // refresh failed; eviction timer started
	KindServiceRestored = "service_restored" // pending service answered again
	KindServiceRemoved  = "service_removed"  // evicted after the grace window
)

// servicePayload is the JSON body of found/changed/restored events.
type servicePayload struct {
	Service *entity.Service `json:"service"`
}

// keyPayload is the JSON body of pending/removed events.
type keyPayload struct {
	Port      uint16           `json:"port"`
	Transport entity.Transport `json:"transport"`
	Since     time.Time        `json:"since,omitempty"`
}

// EncodeServiceEvent serializes a found/changed/restored delta. The bytes
// are produced by the hand-rolled codec (codec.go), which matches
// encoding/json's output bit-for-bit; the write path's per-shard
// eventEncoder reuses buffers instead of calling this allocating form.
func EncodeServiceEvent(svc *entity.Service) []byte {
	return AppendServiceEvent(nil, svc)
}

// EncodeKeyEvent serializes a pending/removed delta.
func EncodeKeyEvent(key entity.ServiceKey, since time.Time) []byte {
	return AppendKeyEvent(nil, key, since)
}

// EncodeHostSnapshot serializes full host state for snapshot events.
func EncodeHostSnapshot(h *entity.Host) []byte {
	return AppendHostSnapshot(nil, h)
}

// DecodeHostSnapshot parses a snapshot payload.
func DecodeHostSnapshot(payload []byte) (*entity.Host, error) {
	var h entity.Host
	if err := json.Unmarshal(payload, &h); err != nil {
		return nil, fmt.Errorf("cqrs: snapshot decode: %w", err)
	}
	return &h, nil
}

// ApplyEvent applies one journaled delta to a host record, the reducer used
// by read-side replay. Unknown kinds are ignored (forward compatibility).
//
// The common case runs through the pooled span-scanning decoder (decode.go)
// which mutates the host's existing service slot in place without
// allocating; payloads the scanner does not fully recognize take the
// original encoding/json path with identical semantics and error text.
func ApplyEvent(h *entity.Host, ev journal.Event) error {
	switch ev.Kind {
	case KindServiceFound, KindServiceChanged, KindServiceRestored:
		d := decoderPool.Get().(*decoder)
		ok := d.applyService(h, ev.Payload)
		decoderPool.Put(d)
		if !ok {
			if err := applyServiceSlow(h, ev); err != nil {
				return err
			}
		}
	case KindServicePending, KindServiceRemoved:
		d := decoderPool.Get().(*decoder)
		ok := d.applyKey(h, ev.Payload, ev.Kind == KindServiceRemoved)
		decoderPool.Put(d)
		if !ok {
			if err := applyKeySlow(h, ev); err != nil {
				return err
			}
		}
	case journal.SnapshotKind:
		// Snapshots are handled by the replay driver, not the reducer.
	}
	if ev.Time.After(h.LastUpdated) {
		h.LastUpdated = ev.Time
	}
	return nil
}
