package cqrs

import (
	"encoding/json"
	"hash/fnv"
	"strconv"
	"sync"
	"time"

	"censysmap/internal/entity"
	"censysmap/internal/journal"
)

// Enricher attaches derived, read-time context (geolocation, ASN, software
// labels, vulnerabilities) to a reconstructed host. Enrichment happens at
// read time because derived context is recomputable and would otherwise
// bloat the journal (paper §5.2 read side).
type Enricher interface {
	Enrich(h *entity.Host)
}

// Reader is the query side: it reconstructs entity state at a timestamp from
// the journal and applies enrichment. It keeps every point-read host's
// newest rendering (see HostJSON).
type Reader struct {
	journal  *journal.Store
	enricher Enricher

	mu       sync.RWMutex
	rendered map[string]*renderedHost
}

// renderedHost is the body HostJSON serves for the host an entity's first n
// journal events describe, and the body's ETag. A row only grows between
// restores and event i has Seq i, so (entity, n) names one body while the
// store's restore epoch stays at epoch.
type renderedHost struct {
	n, epoch uint64
	body     []byte
	etag     string
}

// NewReader creates a read-side accessor. enricher may be nil.
func NewReader(j *journal.Store, enricher Enricher) *Reader {
	return &Reader{journal: j, enricher: enricher, rendered: make(map[string]*renderedHost)}
}

// HostAt reconstructs the host with the given entity ID as it looked at
// asOf: latest snapshot before asOf, plus replayed deltas (paper §5.2
// "lookup APIs"). ok is false if the entity did not exist yet.
func (r *Reader) HostAt(id string, asOf time.Time) (*entity.Host, bool) {
	snap, deltas, found := r.journal.Replay(id, asOf)
	if !found {
		return nil, false
	}
	return r.host(id, snap, deltas)
}

// host reduces a replayed window to the enriched host it describes.
func (r *Reader) host(id string, snap journal.Event, deltas []journal.Event) (*entity.Host, bool) {
	h, err := replayHost(id, snap, deltas)
	if err != nil {
		return nil, false
	}
	if r.enricher != nil {
		r.enricher.Enrich(h)
	}
	return h, true
}

// HostJSON returns the body of a point read of the host at asOf — the bytes
// json.Encoder writes for HostAt's host: json.Marshal's and a newline — and
// its ETag, the quoted FNV-64a hex of the body. The body is rendered once per
// journal version: while the entity's row is unchanged a read costs one
// Replay and returns the stored bytes. A read that ends before the row's
// newest event (a historical asOf) renders without storing. Callers must not
// modify body.
func (r *Reader) HostJSON(id string, asOf time.Time) (body []byte, etag string, ok bool) {
	epoch := r.journal.RestoreEpoch()
	snap, deltas, found := r.journal.Replay(id, asOf)
	if !found {
		return nil, "", false
	}
	n := snap.Seq + 1
	if len(deltas) > 0 {
		n = deltas[len(deltas)-1].Seq + 1
	}
	r.mu.RLock()
	cur := r.rendered[id]
	r.mu.RUnlock()
	if cur != nil && cur.n == n && cur.epoch == epoch {
		return cur.body, cur.etag, true
	}
	h, ok := r.host(id, snap, deltas)
	if !ok {
		return nil, "", false
	}
	body, err := json.Marshal(h)
	if err != nil {
		return nil, "", false
	}
	body = append(body, '\n')
	sum := fnv.New64a()
	_, _ = sum.Write(body)
	etag = `"` + strconv.FormatUint(sum.Sum64(), 16) + `"`
	if uint64(r.journal.Len(id)) == n {
		// Racing renders of one version store identical bytes; an older
		// version never displaces a newer one.
		r.mu.Lock()
		if cur := r.rendered[id]; cur == nil || cur.epoch < epoch || cur.epoch == epoch && cur.n < n {
			r.rendered[id] = &renderedHost{n: n, epoch: epoch, body: body, etag: etag}
		}
		r.mu.Unlock()
	}
	return body, etag, true
}

// History returns the journaled change events for an entity — the long-term
// record users query to understand how an Internet entity evolved.
func (r *Reader) History(id string) []journal.Event {
	return r.journal.Events(id)
}
