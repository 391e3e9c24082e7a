package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"censysmap/internal/search"
)

// Bulk export is snapshot-pinned: the first request of an export materializes
// the full sorted result set as canonical JSON lines and stamps it with the
// search index's generation (the summed per-partition mutation counter). The
// lines are the index documents' own rendered bytes (search.HostsJSON): a
// document is immutable, so a pin shares them instead of copying, and keeps a
// replaced document's bytes alive for as long as it needs them.
// Every later page is a slice of those pinned lines, so the concatenation of
// pages is byte-identical to a single-shot export no matter how many writes
// land between page fetches. The cursor is an opaque token carrying
// (query, generation, offset); decoding it returns typed errors, never
// panics, for any input.

// Typed cursor-decode errors. Handlers map them to 400; ErrCursorExpired
// (a valid cursor whose pinned snapshot is gone and unreconstructable) maps
// to 410 Gone.
var (
	// ErrCursorEncoding: the token is not valid unpadded base64url.
	ErrCursorEncoding = errors.New("export cursor: not valid base64url")
	// ErrCursorSyntax: the decoded payload is not the expected JSON shape.
	ErrCursorSyntax = errors.New("export cursor: malformed payload")
	// ErrCursorVersion: a payload from a different cursor format version.
	ErrCursorVersion = errors.New("export cursor: unsupported version")
	// ErrCursorField: a structurally valid payload with out-of-range fields.
	ErrCursorField = errors.New("export cursor: field out of range")
	// ErrCursorExpired: the pinned snapshot behind the cursor was evicted
	// and the index has advanced, so identical pages can no longer be
	// served. The client must restart the export without a cursor.
	ErrCursorExpired = errors.New("export cursor: snapshot expired; restart the export")
)

// cursor is the decoded pagination token.
type cursor struct {
	V   int    `json:"v"`
	Q   string `json:"q"`
	Gen uint64 `json:"gen"`
	Off int    `json:"off"`
}

const cursorVersion = 1

// encodeCursor renders the opaque token: unpadded base64url over compact
// JSON.
func encodeCursor(c cursor) string {
	blob, _ := json.Marshal(c)
	return base64.RawURLEncoding.EncodeToString(blob)
}

// decodeCursor parses an untrusted token. It returns one of the ErrCursor*
// sentinel errors (wrapped with detail) for every malformed input.
func decodeCursor(s string) (cursor, error) {
	blob, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return cursor{}, fmt.Errorf("%w: %v", ErrCursorEncoding, err)
	}
	var c cursor
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return cursor{}, fmt.Errorf("%w: %v", ErrCursorSyntax, err)
	}
	if dec.More() {
		return cursor{}, fmt.Errorf("%w: trailing data", ErrCursorSyntax)
	}
	if c.V != cursorVersion {
		return cursor{}, fmt.Errorf("%w: v=%d", ErrCursorVersion, c.V)
	}
	if c.Off < 0 || c.Q == "" {
		return cursor{}, fmt.Errorf("%w: off=%d q=%q", ErrCursorField, c.Off, c.Q)
	}
	return c, nil
}

// pin is one materialized export snapshot.
type pin struct {
	query string
	gen   uint64
	lines []json.RawMessage // one canonical JSON host per line, ID order
	seq   uint64            // insertion order, for eviction
}

// maxPins bounds the resident pinned snapshots. A pin is slice headers over
// shared bytes, and rebuilding one costs a search, so the bound is loose.
const maxPins = 16

// exporter owns the pinned snapshots, bounded to maxPins resident pins with
// oldest-first eviction (an evicted pin is rebuilt bit-identically while the
// index generation still matches; once the index moves on, it is expired).
type exporter struct {
	ix *search.Index

	mu   sync.Mutex
	pins map[pinKey]*pin
	seq  uint64
}

type pinKey struct {
	query string
	gen   uint64
}

func newExporter(ix *search.Index) *exporter {
	return &exporter{ix: ix, pins: make(map[pinKey]*pin)}
}

// materialize runs the query and freezes its full result set as JSON lines.
// The generation is read before and after the search and the materialization
// retried on movement, so the stamp matches the bytes even when writes race
// the pin.
func (e *exporter) materialize(query string) (*pin, error) {
	for attempt := 0; ; attempt++ {
		g1 := e.ix.Generation()
		ids, err := e.ix.Search(query)
		if err != nil {
			return nil, err
		}
		lines, err := e.ix.HostsJSON(ids)
		if err != nil {
			return nil, err
		}
		g2 := e.ix.Generation()
		if g1 != g2 && attempt < 3 {
			continue
		}
		return &pin{query: query, gen: g2, lines: lines}, nil
	}
}

// insert registers a pin, evicting the oldest resident pin over capacity.
func (e *exporter) insert(p *pin) {
	e.seq++
	p.seq = e.seq
	for len(e.pins) >= maxPins {
		var victim pinKey
		oldest := uint64(1<<63 - 1)
		for k, v := range e.pins {
			if v.seq < oldest {
				oldest, victim = v.seq, k
			}
		}
		delete(e.pins, victim)
	}
	e.pins[pinKey{p.query, p.gen}] = p
}

// open starts a new export: pin (or reuse) the query's snapshot at the
// current generation.
func (e *exporter) open(query string) (*pin, error) {
	e.mu.Lock()
	if p, ok := e.pins[pinKey{query, e.ix.Generation()}]; ok {
		e.mu.Unlock()
		return p, nil
	}
	e.mu.Unlock()
	// Materialize outside the lock: the search fan-out is the expensive part
	// and must not serialize concurrent exports.
	p, err := e.materialize(query)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if prior, ok := e.pins[pinKey{p.query, p.gen}]; ok {
		return prior, nil
	}
	e.insert(p)
	return p, nil
}

// resume finds the pin behind a decoded cursor. An evicted pin is rebuilt
// bit-identically when the index generation still matches; otherwise the
// export is expired.
func (e *exporter) resume(c cursor) (*pin, error) {
	e.mu.Lock()
	if p, ok := e.pins[pinKey{c.Q, c.Gen}]; ok {
		e.mu.Unlock()
		return p, nil
	}
	cur := e.ix.Generation()
	e.mu.Unlock()
	if cur != c.Gen {
		return nil, ErrCursorExpired
	}
	p, err := e.materialize(c.Q)
	if err != nil {
		return nil, err
	}
	if p.gen != c.Gen {
		// The index moved while rebuilding: the original bytes are gone.
		return nil, ErrCursorExpired
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if prior, ok := e.pins[pinKey{p.query, p.gen}]; ok {
		return prior, nil
	}
	e.insert(p)
	return p, nil
}

// pinCount reports resident pins (the censys_serve_export_pins gauge).
func (e *exporter) pinCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pins)
}

// handleExportPage serves GET /v2/export/hosts:
//
//	?q=<query>&per_page=<n>         — open an export, first page + cursor
//	?cursor=<token>[&per_page=<n>]  — next page of a pinned export
//
// The body is one JSON object, fields in this order:
//
//	{"query":…,"generation":…,"total":…,"offset":…,"count":…,"results":[…],"next_cursor":…}
//
// with the pin's lines re-emitted byte for byte and next_cursor absent on the
// last page.
func (s *Server) handleExportPage(w http.ResponseWriter, r *http.Request) {
	per, ok := s.perPage(w, r)
	if !ok {
		return
	}
	p, off, ok := s.resolveExport(w, r)
	if !ok {
		return
	}
	// Clamp before adding: a cursor's offset can be anything up to MaxInt.
	off = min(off, len(p.lines))
	end := off + min(per, len(p.lines)-off)
	next := ""
	if end < len(p.lines) {
		next = encodeCursor(cursor{V: cursorVersion, Q: p.query, Gen: p.gen, Off: end})
	}

	query, _ := json.Marshal(p.query)    // a string always marshals
	size := 256 + len(query) + len(next) // the envelope fits in 256 bytes
	for _, line := range p.lines[off:end] {
		size += len(line) + 1
	}
	body := append(append(make([]byte, 0, size), `{"query":`...), query...)
	body = strconv.AppendUint(append(body, `,"generation":`...), p.gen, 10)
	body = strconv.AppendInt(append(body, `,"total":`...), int64(len(p.lines)), 10)
	body = strconv.AppendInt(append(body, `,"offset":`...), int64(off), 10)
	body = strconv.AppendInt(append(body, `,"count":`...), int64(end-off), 10)
	body = append(body, `,"results":[`...)
	for i, line := range p.lines[off:end] {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, line...)
	}
	body = append(body, ']')
	if next != "" { // base64url: nothing to escape
		body = append(append(append(body, `,"next_cursor":"`...), next...), '"')
	}
	w.Header().Set(ExportGenerationHeader, strconv.FormatUint(p.gen, 10))
	w.Header().Set(ExportTotalHeader, strconv.Itoa(len(p.lines)))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	s.metrics.exportPage(end - off)
	_, _ = w.Write(append(body, '}', '\n')) // the client has gone if this fails
}

// handleExportStream serves GET /v2/export/hosts/stream?q=<query>: the whole
// pinned snapshot as NDJSON, one host per line, written incrementally.
func (s *Server) handleExportStream(w http.ResponseWriter, r *http.Request) {
	p, off, ok := s.resolveExport(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(ExportGenerationHeader, strconv.FormatUint(p.gen, 10))
	w.Header().Set(ExportTotalHeader, strconv.Itoa(len(p.lines)))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	off = min(off, len(p.lines))
	for i, line := range p.lines[off:] {
		_, _ = w.Write(line)
		_, _ = w.Write([]byte{'\n'})
		if flusher != nil && (i+1)%flushEvery == 0 {
			flusher.Flush()
		}
	}
	s.metrics.exportPage(len(p.lines) - off)
}

// flushEvery bounds how many NDJSON lines buffer before an explicit flush.
const flushEvery = 256

// resolveExport turns the request's q/cursor parameters into a pinned
// snapshot and start offset, writing the error response itself on failure.
func (s *Server) resolveExport(w http.ResponseWriter, r *http.Request) (*pin, int, bool) {
	q := r.URL.Query().Get("q")
	token := r.URL.Query().Get("cursor")
	switch {
	case token == "" && q == "":
		writeJSON(w, http.StatusBadRequest, errorBody{"missing q or cursor parameter"})
		return nil, 0, false
	case !utf8.ValidString(q):
		// A cursor carries its query through JSON, which would turn the bad
		// bytes into U+FFFD: the resumed pages would pin different text.
		writeJSON(w, http.StatusBadRequest, errorBody{"q parameter is not valid UTF-8"})
		return nil, 0, false
	case token == "":
		p, err := s.exp.open(q)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
			return nil, 0, false
		}
		return p, 0, true
	}
	c, err := decodeCursor(token)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return nil, 0, false
	}
	if q != "" && q != c.Q {
		writeJSON(w, http.StatusBadRequest,
			errorBody{"q parameter disagrees with cursor; pass one or the other"})
		return nil, 0, false
	}
	p, err := s.exp.resume(c)
	switch {
	case errors.Is(err, ErrCursorExpired):
		writeJSON(w, http.StatusGone, errorBody{err.Error()})
		return nil, 0, false
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return nil, 0, false
	}
	return p, c.Off, true
}

// perPage reads ?per_page, applying the configured default and MaxPageSize
// cap.
func (s *Server) perPage(w http.ResponseWriter, r *http.Request) (int, bool) {
	raw := r.URL.Query().Get("per_page")
	if raw == "" {
		return s.cfg.PageSize, true
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 1 || n > MaxPageSize {
		writeJSON(w, http.StatusBadRequest,
			errorBody{fmt.Sprintf("invalid per_page (1..%d)", MaxPageSize)})
		return 0, false
	}
	return n, true
}
