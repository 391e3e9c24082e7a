package cqrs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"censysmap/internal/binrec"
	"censysmap/internal/entity"
	"censysmap/internal/journal"
)

// decodeService parses a service delta into a new record.
func decodeService(payload []byte) (*entity.Service, error) {
	r := binrec.Reader{B: payload, Bad: ErrBadPayload}
	v := readService(&r)
	if err := r.End(); err != nil {
		return nil, err
	}
	svc := &entity.Service{}
	v.commit(svc)
	return svc, nil
}

// TestPayloadRoundTrip: every grammar decodes to the value that was encoded —
// nasty strings byte for byte, nanosecond and zero times, zoned and mapped
// addresses — and the decoded value re-encodes to the same bytes.
func TestPayloadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	services := []*entity.Service{{}, {FirstSeen: time.Unix(0, 1).UTC(), LastSeen: time.Unix(-1, 999999999).UTC()}}
	hosts := []*entity.Host{
		{Services: map[string]*entity.Service{}},
		{IP: netip.MustParseAddr("fe80::1%eth0"), Services: map[string]*entity.Service{}},
		{IP: netip.MustParseAddr("::ffff:10.0.0.1"), Services: map[string]*entity.Service{}},
	}
	for i := 0; i < 500; i++ {
		services = append(services, randService(rng))
		hosts = append(hosts, randHost(rng))
	}
	for i, svc := range services {
		payload := AppendServiceEvent(nil, svc)
		got, err := decodeService(payload)
		if err != nil {
			t.Fatalf("service %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, svc) {
			t.Fatalf("service %d drifted:\n got  %+v\n want %+v", i, got, svc)
		}
		if again := AppendServiceEvent(nil, got); !bytes.Equal(again, payload) {
			t.Fatalf("service %d: re-encoding changed bytes", i)
		}

		// The same delta through the reducer, onto an empty host and again
		// onto the slot it just filled.
		h := &entity.Host{}
		for range 2 {
			if err := ApplyEvent(h, journal.Event{Kind: KindServiceChanged, Payload: payload}); err != nil {
				t.Fatalf("service %d: apply: %v", i, err)
			}
			if !reflect.DeepEqual(h.Service(svc.Key()), svc) || len(h.Services) != 1 {
				t.Fatalf("service %d: applied state %+v, want %+v", i, h.Services, svc)
			}
		}

		key, since := svc.Key(), randTime(rng)
		r := binrec.Reader{B: AppendKeyEvent(nil, key, since), Bad: ErrBadPayload}
		port, transport, at := readKey(&r)
		if err := r.End(); err != nil || port != key.Port || string(transport) != string(key.Transport) || !at.Equal(since) {
			t.Fatalf("key %d: got %d/%s %v (%v), want %v %v", i, port, transport, at, err, key, since)
		}
	}
	for i, h := range hosts {
		payload := EncodeHostSnapshot(h)
		got, err := DecodeHostSnapshot(payload)
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, h) {
			t.Fatalf("host %d drifted:\n got  %+v\n want %+v", i, got, h)
		}
		if again := EncodeHostSnapshot(got); !bytes.Equal(again, payload) {
			t.Fatalf("host %d: re-encoding changed bytes", i)
		}
	}
}

// rawService assembles a service record field by field, so that a test can
// build what the encoder never would.
type rawService struct {
	flags   byte
	port    uint64
	strs    [6]string // transport protocol cert banner method pop
	times   []uint64  // alternating zigzag seconds, nanoseconds
	nattr   uint64
	attrs   []string // alternating key, value
	trailer []byte
}

func (s rawService) bytes() []byte {
	b := binary.AppendUvarint([]byte{s.flags}, s.port)
	for _, str := range s.strs {
		b = binrec.AppendBytes(b, str)
	}
	for _, t := range s.times {
		b = binary.AppendUvarint(b, t)
	}
	b = binary.AppendUvarint(b, s.nattr)
	for _, a := range s.attrs {
		b = binrec.AppendBytes(b, a)
	}
	return append(b, s.trailer...)
}

// TestPayloadMalformed: every deviation from the encoder's output is
// ErrBadPayload from the reducer, the snapshot decoder and the renderer
// alike, and the reducer leaves the host as it was.
func TestPayloadMalformed(t *testing.T) {
	good := rawService{port: 80, strs: [6]string{"tcp", "HTTP"}, times: []uint64{2, 0, 4, 5},
		nattr: 2, attrs: []string{"a", "1", "b", "2"}}
	if _, err := decodeService(good.bytes()); err != nil {
		t.Fatalf("the well-formed base record does not decode: %v", err)
	}
	mut := func(f func(*rawService)) []byte {
		s := good
		s.attrs = append([]string(nil), good.attrs...)
		s.times = append([]uint64(nil), good.times...)
		f(&s)
		return s.bytes()
	}
	padded := append([]byte{0, 0x80, 0x00}, good.bytes()[2:]...) // port 0 as a two-byte varint
	services := map[string][]byte{
		"empty":                 {},
		"truncated":             good.bytes()[:len(good.bytes())-1],
		"cut in a string":       good.bytes()[:5],
		"trailing byte":         mut(func(s *rawService) { s.trailer = []byte{0} }),
		"padded varint":         padded,
		"varint overflow":       append([]byte{0}, bytes.Repeat([]byte{0xff}, 11)...),
		"unknown flag bit":      mut(func(s *rawService) { s.flags = 8 }),
		"port out of range":     mut(func(s *rawService) { s.port = 65536 }),
		"nanoseconds too large": mut(func(s *rawService) { s.times[1] = 1e9 }),
		"pending flag, no time": mut(func(s *rawService) { s.flags = flagPending; s.nattr, s.attrs = 0, nil }),
		"unsorted attributes":   mut(func(s *rawService) { s.attrs = []string{"b", "2", "a", "1"} }),
		"duplicate attribute":   mut(func(s *rawService) { s.attrs = []string{"a", "1", "a", "2"} }),
		"attribute overcount":   mut(func(s *rawService) { s.nattr = 3 }),
		"attribute undercount":  mut(func(s *rawService) { s.nattr = 1 }),
		"huge attribute count":  mut(func(s *rawService) { s.nattr = 1 << 62 }),
	}
	// A third attribute whose value claims nine bytes where one is left.
	services["length past end"] = mut(func(s *rawService) {
		s.nattr, s.attrs, s.trailer = 3, append(s.attrs, "c"), []byte{9, 'x'}
	})

	hostBase := func() *entity.Host {
		h := entity.NewHost(netip.MustParseAddr("10.0.0.1"))
		h.SetService(&entity.Service{Port: 80, Transport: entity.TCP, Protocol: "OLD"})
		return h
	}
	for name, payload := range services {
		h := hostBase()
		err := ApplyEvent(h, journal.Event{Kind: KindServiceFound, Time: time.Unix(9, 0), Payload: payload})
		if !errors.Is(err, ErrBadPayload) {
			t.Errorf("service/%s: apply err = %v, want ErrBadPayload", name, err)
		}
		if !reflect.DeepEqual(h, hostBase()) {
			t.Errorf("service/%s: a refused delta changed the host", name)
		}
		if _, err := appendPayloadJSON(nil, KindServiceFound, payload); !errors.Is(err, ErrBadPayload) {
			t.Errorf("service/%s: render err = %v, want ErrBadPayload", name, err)
		}
	}

	key := AppendKeyEvent(nil, entity.ServiceKey{Port: 80, Transport: entity.TCP}, time.Unix(7, 3))
	keys := map[string][]byte{
		"empty":             {},
		"truncated":         key[:len(key)-1],
		"trailing byte":     append(append([]byte(nil), key...), 0),
		"port out of range": append(binary.AppendUvarint(nil, 70000), key[1:]...),
		"a service record":  good.bytes(),
	}
	for name, payload := range keys {
		for _, kind := range []string{KindServicePending, KindServiceRemoved} {
			h := hostBase()
			if err := ApplyEvent(h, journal.Event{Kind: kind, Payload: payload}); !errors.Is(err, ErrBadPayload) {
				t.Errorf("key/%s: %s err = %v, want ErrBadPayload", name, kind, err)
			}
			if !reflect.DeepEqual(h, hostBase()) {
				t.Errorf("key/%s: a refused %s changed the host", name, kind)
			}
			if _, err := appendPayloadJSON(nil, kind, payload); !errors.Is(err, ErrBadPayload) {
				t.Errorf("key/%s: render err = %v, want ErrBadPayload", name, err)
			}
		}
	}

	snapshot := func(ip []byte, n uint64, services ...rawService) []byte {
		b := binrec.AppendBytes(nil, ip)
		b = binary.AppendUvarint(append(b, 2, 0), n) // last_updated 1s
		for _, s := range services {
			b = append(b, s.bytes()...)
		}
		return b
	}
	at := func(port uint64) rawService {
		s := good
		s.port = port
		return s
	}
	v4 := []byte{10, 0, 0, 1}
	if _, err := DecodeHostSnapshot(snapshot(v4, 2, at(443), at(80))); err != nil {
		t.Fatalf("the well-formed base snapshot does not decode: %v", err)
	}
	snapshots := map[string][]byte{
		"empty":               {},
		"bad ip length":       snapshot([]byte{10, 0, 0}, 0),
		"unsorted services":   snapshot(v4, 2, at(80), at(443)), // "443/tcp" < "80/tcp"
		"duplicate service":   snapshot(v4, 2, at(80), at(80)),
		"service overcount":   snapshot(v4, 3, at(443), at(80)),
		"service undercount":  snapshot(v4, 1, at(443), at(80)),
		"huge service count":  snapshot(v4, 1<<62, at(443)),
		"bad service":         snapshot(v4, 1, rawService{flags: 8}),
		"truncated":           snapshot(v4, 1, at(443))[:20],
		"trailing byte":       append(snapshot(v4, 0), 0),
		"a service record":    good.bytes(),
		"padded service port": append(snapshot(v4, 1), padded...),
	}
	for name, payload := range snapshots {
		if _, err := DecodeHostSnapshot(payload); !errors.Is(err, ErrBadPayload) {
			t.Errorf("snapshot/%s: decode err = %v, want ErrBadPayload", name, err)
		}
		if _, err := appendPayloadJSON(nil, journal.SnapshotKind, payload); !errors.Is(err, ErrBadPayload) {
			t.Errorf("snapshot/%s: render err = %v, want ErrBadPayload", name, err)
		}
	}
}

// TestMalformedPayloadSurfaces: the three replay drivers handle a payload
// that does not parse where they handled a JSON error before — HostAt
// reports the host as not found, RebuildProcessor and RebuildSnapshotPayload
// fail with the typed error wrapped in their own context.
func TestMalformedPayloadSurfaces(t *testing.T) {
	id := addr.String()
	good := AppendServiceEvent(nil, &entity.Service{Port: 80, Transport: entity.TCP, Protocol: "HTTP"})
	for name, events := range map[string][]journal.Event{
		"bad delta":    {{Kind: KindServiceFound, Payload: good[:len(good)-1]}},
		"bad snapshot": {{Kind: journal.SnapshotKind, Payload: []byte{3}}, {Kind: KindServiceFound, Payload: good}},
	} {
		j := journal.NewStore()
		for i, ev := range events {
			var err error
			if ev.Kind == journal.SnapshotKind {
				_, err = j.AppendSnapshot(id, at(i), ev.Payload)
			} else {
				_, err = j.Append(id, at(i), ev.Kind, ev.Payload)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := NewReader(j, nil).HostAt(id, at(10)); ok {
			t.Errorf("%s: HostAt reconstructed a host", name)
		}
		if _, err := RebuildProcessor(Config{}, j, at(10)); !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s: RebuildProcessor err = %v, want ErrBadPayload", name, err)
		}
		if _, err := RebuildSnapshotPayload(id, j.Events(id)); !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s: RebuildSnapshotPayload err = %v, want ErrBadPayload", name, err)
		}
	}
}

// FuzzPayloadDecode: whatever the bytes, no grammar's decoder panics or
// over-reads, each fails only with ErrBadPayload, and each accepts only
// input that re-encodes to itself — the property CRC-proven snapshot repair
// (durable.tryRepair via RebuildSnapshotPayload) rests on. The reducer and
// the renderer must agree with the decoder on what is well formed. Seeds are
// encoded values of every grammar plus a truncation, a padding and bit flips
// of each.
func FuzzPayloadDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		svc := randService(rng)
		for grammar, payload := range [][]byte{
			AppendServiceEvent(nil, svc),
			AppendKeyEvent(nil, svc.Key(), randTime(rng)),
			EncodeHostSnapshot(randHost(rng)),
		} {
			g := uint8(grammar)
			f.Add(g, payload)
			f.Add(g, payload[:len(payload)-1])
			f.Add(g, append(append([]byte(nil), payload...), 0))
			for _, bit := range []int{0, 11, len(payload)*8 - 1} {
				flipped := append([]byte(nil), payload...)
				flipped[bit/8] ^= 1 << (bit % 8)
				f.Add(g, flipped)
			}
		}
	}
	f.Add(uint8(0), []byte{})

	f.Fuzz(func(t *testing.T, grammar uint8, data []byte) {
		var kind string
		var again []byte
		var err error
		switch grammar % 3 {
		case 0:
			kind = KindServiceFound
			var svc *entity.Service
			if svc, err = decodeService(data); err == nil {
				again = AppendServiceEvent(nil, svc)
			}
		case 1:
			kind = KindServicePending
			r := binrec.Reader{B: data, Bad: ErrBadPayload}
			port, transport, since := readKey(&r)
			if err = r.End(); err == nil {
				again = AppendKeyEvent(nil, entity.ServiceKey{Port: port, Transport: entity.Transport(transport)}, since)
			}
		default:
			kind = journal.SnapshotKind
			var h *entity.Host
			if h, err = DecodeHostSnapshot(data); err == nil {
				again = EncodeHostSnapshot(h)
			}
		}
		if err != nil && !errors.Is(err, ErrBadPayload) {
			t.Fatalf("untyped decode error: %v", err)
		}
		if err == nil && !bytes.Equal(again, data) {
			t.Fatalf("accepted non-canonical input:\n in  %x\n out %x", data, again)
		}
		if _, rerr := appendPayloadJSON(nil, kind, data); (rerr == nil) != (err == nil) {
			t.Fatalf("renderer says %v, decoder says %v", rerr, err)
		}
		if kind != journal.SnapshotKind {
			aerr := ApplyEvent(&entity.Host{}, journal.Event{Kind: kind, Payload: data})
			if (aerr == nil) != (err == nil) {
				t.Fatalf("reducer says %v, decoder says %v", aerr, err)
			}
		}
	})
}
