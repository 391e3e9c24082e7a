package cqrs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"censysmap/internal/entity"
	"censysmap/internal/journal"
)

// nastyStrings exercise every escaping regime encoding/json has: HTML
// escapes, control shorthands, \u00xx controls, invalid UTF-8 (replaced by
// U+FFFD), U+2028/U+2029, multi-byte runes, and plain ASCII.
var nastyStrings = []string{
	"",
	"plain ascii",
	"<html>&amp;</html>",
	"line\nbreak\ttab\rret",
	"quote\"back\\slash/solidus",
	"ctrl\x01\x1f\x00byte",
	"bad utf8 \xff\xfe\xc3(",
	"line sep \u2028 para sep \u2029",
	"h\u00e9llo w\u00f6rld \u4e16\u754c \U0001F600",
	"trailing high surrogate byte \xed\xa0\x80",
	"MODBUS/TCP \u2192 unit",
}

func randString(rng *rand.Rand) string {
	return nastyStrings[rng.Intn(len(nastyStrings))]
}

func randTime(rng *rand.Rand) time.Time {
	base := time.Date(2024, 8, 20, 0, 0, 0, 0, time.UTC)
	t := base.Add(time.Duration(rng.Int63n(int64(100 * 24 * time.Hour))))
	switch rng.Intn(3) {
	case 0:
		return t // whole seconds
	case 1:
		return t.Add(time.Duration(rng.Intn(1e9))) // nanos
	default:
		return t.Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
	}
}

func randService(rng *rand.Rand) *entity.Service {
	svc := &entity.Service{
		Port:      uint16(rng.Intn(65536)),
		Transport: []entity.Transport{entity.TCP, entity.UDP}[rng.Intn(2)],
		Protocol:  []string{"HTTP", "MODBUS", "UNKNOWN", randString(rng)}[rng.Intn(4)],
		TLS:       rng.Intn(2) == 0,
		Verified:  rng.Intn(2) == 0,
		FirstSeen: randTime(rng),
		LastSeen:  randTime(rng),
	}
	if rng.Intn(2) == 0 {
		svc.CertSHA256 = randString(rng)
	}
	if rng.Intn(2) == 0 {
		svc.Banner = randString(rng)
	}
	if rng.Intn(2) == 0 {
		svc.Method = entity.DetectPriorityScan
	}
	if rng.Intn(2) == 0 {
		svc.SourcePoP = randString(rng)
	}
	if n := rng.Intn(20); n > 0 {
		svc.Attributes = make(map[string]string, n)
		for i := 0; i < n; i++ {
			svc.Attributes[fmt.Sprintf("attr.%s.%d", randString(rng), i)] = randString(rng)
		}
	}
	if rng.Intn(3) == 0 {
		t := randTime(rng)
		svc.PendingRemovalSince = &t
	}
	return svc
}

// randHost generates journaled host state: derived context is attached at
// read time and is no part of a snapshot.
func randHost(rng *rand.Rand) *entity.Host {
	h := &entity.Host{LastUpdated: randTime(rng), Services: map[string]*entity.Service{}}
	if rng.Intn(8) > 0 {
		h.IP = netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
	}
	for i, n := 0, rng.Intn(20); i < n; i++ {
		h.SetService(randService(rng))
	}
	return h
}

// servicePayload and keyPayload are the JSON bodies the history API shows for
// found/changed/restored and for pending/removed events.
type servicePayload struct {
	Service *entity.Service `json:"service"`
}

type keyPayload struct {
	Port      uint16           `json:"port"`
	Transport entity.Transport `json:"transport"`
	Since     time.Time        `json:"since,omitempty"`
}

// TestCodecDifferentialEncode holds the history renderer byte-identical to
// encoding/json: a payload rendered straight from its binary form must read
// exactly as json.Marshal of the entity it encodes, over randomized inputs
// covering the full escaping and omitempty surface.
func TestCodecDifferentialEncode(t *testing.T) {
	render := func(kind string, payload []byte) []byte {
		t.Helper()
		got, err := appendPayloadJSON(nil, kind, payload)
		if err != nil {
			t.Fatalf("render %s: %v", kind, err)
		}
		return got
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		svc := randService(rng)
		want, err := json.Marshal(servicePayload{Service: svc})
		if err != nil {
			t.Fatalf("reference marshal: %v", err)
		}
		if got := render(KindServiceChanged, AppendServiceEvent(nil, svc)); !bytes.Equal(got, want) {
			t.Fatalf("service event %d:\n got %s\nwant %s", i, got, want)
		}

		key := entity.ServiceKey{Port: svc.Port, Transport: svc.Transport}
		since := randTime(rng)
		want, _ = json.Marshal(keyPayload{Port: key.Port, Transport: key.Transport, Since: since})
		if got := render(KindServicePending, AppendKeyEvent(nil, key, since)); !bytes.Equal(got, want) {
			t.Fatalf("key event %d:\n got %s\nwant %s", i, got, want)
		}

		h := randHost(rng)
		want, err = json.Marshal(h)
		if err != nil {
			t.Fatalf("reference marshal host: %v", err)
		}
		if got := render(journal.SnapshotKind, EncodeHostSnapshot(h)); !bytes.Equal(got, want) {
			t.Fatalf("host snapshot %d:\n got %s\nwant %s", i, got, want)
		}
	}
	// Degenerate shapes the generator can miss.
	want, _ := json.Marshal(&entity.Host{})
	if got := render(journal.SnapshotKind, EncodeHostSnapshot(&entity.Host{})); !bytes.Equal(got, want) {
		t.Fatalf("zero host: got %s want %s", got, want)
	}
	want, _ = json.Marshal(keyPayload{})
	if got := render(KindServiceRemoved, AppendKeyEvent(nil, entity.ServiceKey{}, time.Time{})); !bytes.Equal(got, want) {
		t.Fatalf("zero key event: got %s want %s", got, want)
	}
	want, _ = json.Marshal(servicePayload{Service: &entity.Service{}})
	if got := render(KindServiceFound, AppendServiceEvent(nil, &entity.Service{})); !bytes.Equal(got, want) {
		t.Fatalf("zero service: got %s want %s", got, want)
	}
}

// TestAppendEventJSON: the history entry's envelope matches encoding/json,
// an empty payload has no body, and a payload that does not parse leaves the
// buffer as it was.
func TestAppendEventJSON(t *testing.T) {
	type entry struct {
		Seq  uint64          `json:"seq"`
		Time time.Time       `json:"time"`
		Kind string          `json:"kind"`
		Body json.RawMessage `json:"body,omitempty"`
	}
	rng := rand.New(rand.NewSource(3))
	svc := randService(rng)
	body, _ := json.Marshal(servicePayload{Service: svc})
	ev := journal.Event{Entity: "10.0.0.1", Seq: 7, Time: randTime(rng), Kind: KindServiceFound,
		Payload: AppendServiceEvent(nil, svc)}
	for _, c := range []struct {
		ev   journal.Event
		want entry
	}{
		{ev, entry{Seq: 7, Time: ev.Time, Kind: ev.Kind, Body: body}},
		{journal.Event{Seq: 1 << 63, Kind: "future <kind>"}, entry{Seq: 1 << 63, Kind: "future <kind>"}},
	} {
		want, err := json.Marshal(c.want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendEventJSON([]byte("["), c.ev)
		if err != nil || string(got) != "["+string(want) {
			t.Fatalf("got %s, %v\nwant [%s", got, err, want)
		}
	}
	for name, bad := range map[string]journal.Event{
		"truncated":    {Kind: KindServiceFound, Payload: ev.Payload[:len(ev.Payload)-1]},
		"unknown kind": {Kind: "future_kind", Payload: []byte{1}},
	} {
		got, err := AppendEventJSON([]byte("["), bad)
		if !errors.Is(err, ErrBadPayload) || string(got) != "[" {
			t.Errorf("%s: got %q, %v; want the buffer unextended and ErrBadPayload", name, got, err)
		}
	}
}

// TestEventEncoderStability verifies arena-interned payloads survive later
// encodes (the journal retains them forever).
func TestEventEncoderStability(t *testing.T) {
	var enc eventEncoder
	rng := rand.New(rand.NewSource(99))
	var payloads [][]byte
	var want []string
	for i := 0; i < 500; i++ {
		svc := randService(rng)
		b := enc.serviceEvent(svc)
		payloads = append(payloads, b)
		want = append(want, string(b))
	}
	for i := range payloads {
		if string(payloads[i]) != want[i] {
			t.Fatalf("payload %d mutated after later encodes", i)
		}
	}
}
