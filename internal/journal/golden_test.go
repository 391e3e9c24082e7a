// Golden-file tests for the journal's delta encoding: the exact bytes the
// write side journals for each event kind (binary, so the files hold them
// hex-dumped), and the exact event stream a representative service lifecycle
// produces. A diff here means the on-disk journal format changed — which
// breaks replay of existing journals and must be deliberate (bump
// durable's manifestVersion with it). Regenerate with:
//
//	go test ./internal/journal/ -run TestGolden -update
package journal_test

import (
	"encoding/hex"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"censysmap/internal/cqrs"
	"censysmap/internal/entity"
	"censysmap/internal/journal"
)

var update = flag.Bool("update", false, "rewrite golden files")

var goldenEpoch = time.Date(2024, 8, 20, 0, 0, 0, 0, time.UTC)

func gat(h int) time.Time { return goldenEpoch.Add(time.Duration(h) * time.Hour) }

// hexLine is how a golden file holds one payload.
func hexLine(payload []byte) []byte { return []byte(hex.EncodeToString(payload) + "\n") }

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s: encoding changed\n got: %s\nwant: %s", name, got, want)
	}
}

// goldenService is a fully populated service record exercising every
// serialized field.
func goldenService() *entity.Service {
	pending := gat(30)
	return &entity.Service{
		Port: 443, Transport: entity.TCP, Protocol: "HTTP",
		TLS: true, CertSHA256: "d2b4...aa00", Banner: "HTTP/1.1 200 OK\nServer: nginx",
		Attributes:          map[string]string{"http.title": "Welcome", "http.server": "nginx/1.24.0"},
		Method:              entity.DetectPriorityScan,
		Verified:            true,
		FirstSeen:           gat(0),
		LastSeen:            gat(24),
		PendingRemovalSince: &pending,
		SourcePoP:           "fra",
	}
}

func TestGoldenEventPayloads(t *testing.T) {
	checkGolden(t, "service_event.golden", hexLine(cqrs.AppendServiceEvent(nil, goldenService())))
	checkGolden(t, "key_event.golden",
		hexLine(cqrs.AppendKeyEvent(nil, entity.ServiceKey{Port: 443, Transport: entity.TCP}, gat(30))))

	h := entity.NewHost(netip.MustParseAddr("10.1.2.3"))
	h.SetService(goldenService())
	h.SetService(&entity.Service{Port: 22, Transport: entity.TCP, Protocol: "SSH",
		Banner: "SSH-2.0-OpenSSH_9.6", FirstSeen: gat(1), LastSeen: gat(25)})
	h.LastUpdated = gat(25)
	checkGolden(t, "host_snapshot.golden", hexLine(cqrs.EncodeHostSnapshot(h)))
}

// TestGoldenDeltaStream drives a processor through a full service lifecycle
// — found, changed, unchanged (suppressed), pending, restored, removed, and
// a snapshot — and pins the exact journal rows it emits.
func TestGoldenDeltaStream(t *testing.T) {
	j := journal.NewStore()
	p := cqrs.NewProcessor(cqrs.Config{EvictAfter: 72 * time.Hour, SnapshotEvery: 5}, j)

	a := netip.MustParseAddr("10.1.2.3")
	obs := func(tm time.Time, banner string, ok bool) cqrs.Observation {
		o := cqrs.Observation{Addr: a, Port: 80, Transport: entity.TCP, Time: tm,
			PoP: "chi", Method: entity.DetectRefresh}
		if ok {
			o.Success = true
			o.Service = &entity.Service{Port: 80, Transport: entity.TCP,
				Protocol: "HTTP", Banner: banner, Verified: true}
		}
		return o
	}

	seq := []cqrs.Observation{
		obs(gat(0), "v1", true), // service_found
		obs(gat(1), "v1", true), // unchanged: suppressed
		obs(gat(2), "v2", true), // service_changed
		obs(gat(3), "", false),  // service_pending
		obs(gat(4), "v2", true), // service_restored
		obs(gat(5), "", false),  // service_pending again (journal row 4)
		obs(gat(80), "", false), // beyond EvictAfter: service_removed + snapshot
	}
	for i, o := range seq {
		if err := p.Apply(o); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}

	var sb strings.Builder
	for _, ev := range j.Events(a.String()) {
		fmt.Fprintf(&sb, "%s seq=%d t=%s kind=%s payload=%x\n",
			ev.Entity, ev.Seq, ev.Time.UTC().Format(time.RFC3339), ev.Kind, ev.Payload)
	}
	checkGolden(t, "delta_stream.golden", []byte(sb.String()))

	// The stream must also replay: reduce every delta over the empty host
	// and confirm the lifecycle ended with the slot evicted.
	h := entity.NewHost(a)
	for _, ev := range j.Events(a.String()) {
		if ev.Kind == journal.SnapshotKind {
			continue
		}
		if err := cqrs.ApplyEvent(h, ev); err != nil {
			t.Fatal(err)
		}
	}
	if len(h.AllServices()) != 0 {
		t.Fatalf("replayed lifecycle should end empty, got %+v", h.AllServices())
	}

	// And replay must find the snapshot base with exactly the final
	// removal as its trailing delta.
	snap, deltas, found := j.Replay(a.String(), gat(100))
	if !found {
		t.Fatal("entity missing from journal")
	}
	if snap.Kind != journal.SnapshotKind {
		t.Fatalf("expected snapshot base, got %q", snap.Kind)
	}
	if _, err := cqrs.DecodeHostSnapshot(snap.Payload); err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 || deltas[0].Kind != cqrs.KindServiceRemoved {
		t.Fatalf("want exactly the removal delta after the snapshot, got %+v", deltas)
	}
}
