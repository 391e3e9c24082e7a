package cqrs

// The journal payload: the one file that knows what the bytes of a host
// journal event mean. The event's kind selects the grammar:
//
//	found/changed/restored := service
//	pending/removed        := port transport since
//	snapshot               := ip last_updated n:uvarint service{n}
//
//	service   := flags:u8 port transport protocol cert_sha256 banner method
//	             source_pop first_seen last_seen [pending_removal_since]
//	             n:uvarint (key value){n}
//	flags     := 1 tls | 2 verified | 4 pending_removal_since present
//	port      := uvarint, at most 65535
//	time      := seconds:varint nanoseconds:uvarint   (Unix time, nanoseconds < 1e9)
//	ip        := bytes: netip.Addr's binary form (0, 4, 16 or 16+zone bytes)
//	all other fields := bytes (uvarint length, then the raw bytes)
//
// Attribute keys are strictly ascending, and so are a snapshot's services by
// their "port/transport" map key, so one host state has one encoding. Strings
// are raw bytes — a banner that is not UTF-8 replays to the bytes that were
// observed — and a time is seconds plus nanoseconds rather than UnixNano so
// that time.Time{} survives; times come back as UTC instants. Derived context
// (location, AS, software, vulns, labels) is attached at read time and is not
// part of a snapshot.
//
// The reader is strict (internal/binrec): padded varints, lengths past the
// end, unknown flag bits, unsorted or duplicate keys and trailing bytes are
// all ErrBadPayload, so an accepted payload re-encodes to the same bytes —
// what RebuildSnapshotPayload and the storage engine's CRC-proven snapshot
// repair rest on. A payload is parsed completely into views that alias it
// before anything is committed: a malformed delta leaves the host untouched.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"net/netip"
	"slices"
	"strconv"
	"time"

	"censysmap/internal/binrec"
	"censysmap/internal/entity"
	"censysmap/internal/journal"
)

// ErrBadPayload marks a journal payload that is not a well-formed encoding of
// its event kind.
var ErrBadPayload = errors.New("cqrs: malformed payload")

const (
	flagTLS byte = 1 << iota
	flagVerified
	flagPending
	flagsKnown = flagTLS | flagVerified | flagPending
)

func readPort(r *binrec.Reader) uint16 {
	port := r.Uvarint("port")
	if port > 65535 {
		r.Fail("port: out of range")
	}
	return uint16(port)
}

// sortedKeys returns m's keys in ascending order, in buf when they fit.
func sortedKeys[V any](m map[string]V, buf []string) []string {
	keys := buf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func appendService(dst []byte, s *entity.Service) []byte {
	var flags byte
	if s.TLS {
		flags |= flagTLS
	}
	if s.Verified {
		flags |= flagVerified
	}
	if s.PendingRemovalSince != nil {
		flags |= flagPending
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(s.Port))
	dst = binrec.AppendBytes(dst, s.Transport)
	dst = binrec.AppendBytes(dst, s.Protocol)
	dst = binrec.AppendBytes(dst, s.CertSHA256)
	dst = binrec.AppendBytes(dst, s.Banner)
	dst = binrec.AppendBytes(dst, s.Method)
	dst = binrec.AppendBytes(dst, s.SourcePoP)
	dst = binrec.AppendTime(dst, s.FirstSeen, 0)
	dst = binrec.AppendTime(dst, s.LastSeen, 0)
	if s.PendingRemovalSince != nil {
		dst = binrec.AppendTime(dst, *s.PendingRemovalSince, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.Attributes)))
	var buf [16]string
	for _, k := range sortedKeys(s.Attributes, buf[:]) {
		dst = binrec.AppendBytes(dst, k)
		dst = binrec.AppendBytes(dst, s.Attributes[k])
	}
	return dst
}

// AppendServiceEvent appends a found/changed/restored delta payload to dst.
func AppendServiceEvent(dst []byte, svc *entity.Service) []byte {
	return appendService(dst, svc)
}

// AppendKeyEvent appends a pending/removed delta payload to dst.
func AppendKeyEvent(dst []byte, key entity.ServiceKey, since time.Time) []byte {
	dst = binary.AppendUvarint(dst, uint64(key.Port))
	dst = binrec.AppendBytes(dst, key.Transport)
	return binrec.AppendTime(dst, since, 0)
}

// AppendHostSnapshot appends a full-state snapshot payload to dst. Services
// go out in the order of their map keys, which entity.Host keeps equal to
// "port/transport".
func AppendHostSnapshot(dst []byte, h *entity.Host) []byte {
	var ip [16 + 16]byte
	addr, _ := h.IP.AppendBinary(ip[:0]) // cannot fail
	dst = binrec.AppendBytes(dst, addr)
	dst = binrec.AppendTime(dst, h.LastUpdated, 0)
	dst = binary.AppendUvarint(dst, uint64(len(h.Services)))
	var buf [16]string
	for _, k := range sortedKeys(h.Services, buf[:]) {
		dst = appendService(dst, h.Services[k])
	}
	return dst
}

// EncodeHostSnapshot is the allocating form of AppendHostSnapshot; the write
// path's per-shard eventEncoder reuses buffers instead.
func EncodeHostSnapshot(h *entity.Host) []byte { return AppendHostSnapshot(nil, h) }

// serviceView is one parsed service record. Byte fields alias the payload;
// attrs is the validated pair region, read again with a second Reader.
type serviceView struct {
	flags                                          byte
	port                                           uint16
	transport, protocol, cert, banner, method, pop []byte
	first, last, pending                           time.Time
	nattr                                          int
	attrs                                          []byte
}

func readService(r *binrec.Reader) (v serviceView) {
	v.flags = r.Byte("flags")
	if v.flags&^flagsKnown != 0 {
		r.Fail("unknown flag bits")
	}
	v.port = readPort(r)
	v.transport = r.Bytes("transport")
	v.protocol = r.Bytes("protocol")
	v.cert = r.Bytes("cert_sha256")
	v.banner = r.Bytes("banner")
	v.method = r.Bytes("method")
	v.pop = r.Bytes("source_pop")
	v.first = r.Time("first_seen", 0)
	v.last = r.Time("last_seen", 0)
	if v.flags&flagPending != 0 {
		v.pending = r.Time("pending_removal_since", 0)
	}
	v.nattr = r.Count("attributes")
	region := r.B
	var prev []byte
	for i := 0; i < v.nattr && r.Err == nil; i++ {
		k := r.Bytes("attribute key")
		r.Bytes("attribute value")
		if i > 0 && bytes.Compare(prev, k) >= 0 {
			r.Fail("attribute keys not strictly ascending")
		}
		prev = k
	}
	v.attrs = region[:len(region)-len(r.B)]
	return v
}

// readKey reads a pending/removed delta.
func readKey(r *binrec.Reader) (port uint16, transport []byte, since time.Time) {
	return readPort(r), r.Bytes("transport"), r.Time("since", 0)
}

// attr reads the next pair of a validated attribute region.
func attr(r *binrec.Reader) (k, v []byte) { return r.Bytes(""), r.Bytes("") }

// setString stores b in dst, allocating a string only when the value changed.
func setString[T ~string](dst *T, b []byte) {
	if string(*dst) != string(b) {
		*dst = T(b)
	}
}

// commit overwrites svc with the view, reusing what svc already holds where
// the values match: replaying an unchanged service allocates nothing.
func (v *serviceView) commit(svc *entity.Service) {
	svc.Port = v.port
	setString(&svc.Transport, v.transport)
	setString(&svc.Protocol, v.protocol)
	svc.TLS = v.flags&flagTLS != 0
	setString(&svc.CertSHA256, v.cert)
	setString(&svc.Banner, v.banner)
	setString(&svc.Method, v.method)
	svc.Verified = v.flags&flagVerified != 0
	svc.FirstSeen, svc.LastSeen = v.first, v.last
	setPending(svc, v.pending, v.flags&flagPending != 0)
	setString(&svc.SourcePoP, v.pop)
	if !v.attrsEqual(svc.Attributes) {
		svc.Attributes = nil
		if v.nattr > 0 {
			svc.Attributes = make(map[string]string, v.nattr)
		}
		r := binrec.Reader{B: v.attrs}
		for i := 0; i < v.nattr; i++ {
			k, val := attr(&r)
			svc.Attributes[string(k)] = string(val)
		}
	}
}

func (v *serviceView) attrsEqual(m map[string]string) bool {
	if len(m) != v.nattr {
		return false
	}
	r := binrec.Reader{B: v.attrs}
	for i := 0; i < v.nattr; i++ {
		k, val := attr(&r)
		if have, ok := m[string(k)]; !ok || have != string(val) {
			return false
		}
	}
	return true
}

func setPending(svc *entity.Service, since time.Time, pending bool) {
	switch {
	case !pending:
		svc.PendingRemovalSince = nil
	case svc.PendingRemovalSince != nil:
		*svc.PendingRemovalSince = since
	default:
		t := since // not &since: that would heap-allocate the parameter on every call
		svc.PendingRemovalSince = &t
	}
}

// appendServiceKey appends the host map key of a slot, "port/transport".
func appendServiceKey(dst []byte, port uint16, transport []byte) []byte {
	dst = strconv.AppendUint(dst, uint64(port), 10)
	dst = append(dst, '/')
	return append(dst, transport...)
}

// ApplyEvent applies one journaled delta to a host record, in place — the
// reducer of read-side replay. A malformed payload is an error wrapping
// ErrBadPayload and leaves the host as it was. Snapshots are the replay
// driver's business and unknown kinds carry no host state; both only move
// LastUpdated.
func ApplyEvent(h *entity.Host, ev journal.Event) error {
	r := binrec.Reader{B: ev.Payload, Bad: ErrBadPayload}
	var keyBuf [24]byte
	switch ev.Kind {
	case KindServiceFound, KindServiceChanged, KindServiceRestored:
		v := readService(&r)
		if err := r.End(); err != nil {
			return fmt.Errorf("cqrs: apply %s: %w", ev.Kind, err)
		}
		key := appendServiceKey(keyBuf[:0], v.port, v.transport)
		svc := h.Services[string(key)]
		if svc == nil {
			svc = &entity.Service{}
			if h.Services == nil {
				h.Services = make(map[string]*entity.Service)
			}
			h.Services[string(key)] = svc
		}
		v.commit(svc)
	case KindServicePending, KindServiceRemoved:
		port, transport, since := readKey(&r)
		if err := r.End(); err != nil {
			return fmt.Errorf("cqrs: apply %s: %w", ev.Kind, err)
		}
		key := appendServiceKey(keyBuf[:0], port, transport)
		if ev.Kind == KindServiceRemoved {
			delete(h.Services, string(key))
		} else if svc := h.Services[string(key)]; svc != nil {
			setPending(svc, since, true)
		}
	}
	if ev.Time.After(h.LastUpdated) {
		h.LastUpdated = ev.Time
	}
	return nil
}

// snapshotReader walks a snapshot payload: the head fields on open, then the
// services.
type snapshotReader struct {
	r       binrec.Reader
	ip      netip.Addr
	updated time.Time
	n       int
}

func openSnapshot(payload []byte) (s snapshotReader) {
	s.r = binrec.Reader{B: payload, Bad: ErrBadPayload}
	if s.ip.UnmarshalBinary(s.r.Bytes("ip")) != nil {
		s.r.Fail("ip: bad length")
	}
	s.updated = s.r.Time("last_updated", 0)
	// Every service takes more than a byte, so a count past the end is
	// refused, and zeroed, before anything is sized by it.
	if s.n = s.r.Count("services"); s.n > len(s.r.B) {
		s.r.Fail("services: count past end of record")
		s.n = 0
	}
	return s
}

// services yields the snapshot's services in order, each with its host map
// key, checked to sort strictly after the one before. It stops at the first
// failure: a view is handed out only once it has parsed, its counts are not
// to be trusted before. The key is valid until the next iteration.
func (s *snapshotReader) services() iter.Seq2[[]byte, *serviceView] {
	return func(yield func([]byte, *serviceView) bool) {
		// Service i's key is built in bufs[i&1] while its predecessor's
		// still sits in the other.
		var bufs [2][24]byte
		var prev []byte
		for i := 0; i < s.n; i++ {
			v := readService(&s.r)
			key := appendServiceKey(bufs[i&1][:0], v.port, v.transport)
			if i > 0 && bytes.Compare(prev, key) >= 0 {
				s.r.Fail("services not strictly ascending")
			}
			if s.r.Err != nil || !yield(key, &v) {
				return
			}
			prev = key
		}
	}
}

// DecodeHostSnapshot parses a snapshot payload into a new host record.
func DecodeHostSnapshot(payload []byte) (*entity.Host, error) {
	s := openSnapshot(payload)
	h := &entity.Host{IP: s.ip, LastUpdated: s.updated, Services: make(map[string]*entity.Service, s.n)}
	for key, v := range s.services() {
		svc := &entity.Service{}
		v.commit(svc)
		h.Services[string(key)] = svc
	}
	if err := s.r.End(); err != nil {
		return nil, fmt.Errorf("cqrs: snapshot decode: %w", err)
	}
	return h, nil
}

// eventEncoder amortizes write-path payload allocations: payloads are
// encoded into a reused scratch buffer, then copied into the tail of a large
// arena chunk. The journal retains every payload forever, so the bytes must
// outlive the call — the arena satisfies that with one chunk allocation per
// ~64 KiB of journaled deltas instead of one per event. Each procShard owns
// one encoder and serializes access under the shard lock.
type eventEncoder struct {
	scratch []byte
	arena   []byte
}

// arenaChunk is the arena growth quantum. Large enough to amortize hundreds
// of typical delta payloads, small enough that a mostly-idle shard wastes
// little.
const arenaChunk = 64 << 10

// intern copies the scratch buffer into arena-backed stable storage.
func (e *eventEncoder) intern() []byte {
	n := len(e.scratch)
	if cap(e.arena)-len(e.arena) < n {
		e.arena = make([]byte, 0, max(arenaChunk, n))
	}
	off := len(e.arena)
	e.arena = append(e.arena, e.scratch...)
	return e.arena[off : off+n : off+n]
}

func (e *eventEncoder) serviceEvent(svc *entity.Service) []byte {
	e.scratch = AppendServiceEvent(e.scratch[:0], svc)
	return e.intern()
}

func (e *eventEncoder) keyEvent(key entity.ServiceKey, since time.Time) []byte {
	e.scratch = AppendKeyEvent(e.scratch[:0], key, since)
	return e.intern()
}

func (e *eventEncoder) hostSnapshot(h *entity.Host) []byte {
	e.scratch = AppendHostSnapshot(e.scratch[:0], h)
	return e.intern()
}
