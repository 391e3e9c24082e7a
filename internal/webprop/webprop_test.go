package webprop

import (
	"encoding/json"
	"net/netip"
	"slices"
	"strconv"
	"testing"
	"time"

	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
)

func quietConfig() simnet.Config {
	cfg := simnet.DefaultConfig()
	cfg.Prefix = netip.MustParsePrefix("10.0.0.0/22")
	cfg.CloudBlocks = 1
	cfg.WebProperties = 30
	cfg.BaseLoss = 0
	cfg.OutageRate = 0
	cfg.GeoblockRate = 0
	return cfg
}

var scanner = simnet.Scanner{ID: "censys", SourceIPs: 256, Country: "US"}

func fixture(t *testing.T) (*Pipeline, *simnet.Internet, *simclock.Sim) {
	t.Helper()
	clk := simclock.New()
	net := simnet.New(quietConfig(), clk)
	p := New(net, scanner)
	return p, net, clk
}

func TestCTPollingDiscoversSites(t *testing.T) {
	p, net, clk := fixture(t)
	consumed := p.PollCT(net.CT, clk.Now())
	if consumed == 0 {
		t.Fatal("CT poll consumed nothing")
	}
	// Second poll from the cursor consumes nothing new.
	if p.PollCT(net.CT, clk.Now()) != 0 {
		t.Fatal("CT cursor not advanced")
	}
	if len(p.names) == 0 {
		t.Fatal("no names learned from CT")
	}
}

func TestScanBuildsProperties(t *testing.T) {
	p, net, clk := fixture(t)
	p.PollCT(net.CT, clk.Now())
	for i := 0; i < 4; i++ {
		p.Tick(clk.Now())
		clk.Advance(time.Hour)
	}
	props := p.All()
	if len(props) == 0 {
		t.Fatal("no properties built")
	}
	// Each site's certificate names it and is in the CT log.
	certOf := make(map[string]string)
	for _, e := range net.CT.Entries(0, 0) {
		for _, name := range e.Cert.DNSNames {
			certOf[name] = e.Cert.FingerprintSHA256()
		}
	}
	for _, w := range props {
		fp, ok := certOf[w.Name]
		if !ok {
			t.Fatalf("property %q not a real site", w.Name)
		}
		if w.CertSHA256 != fp {
			t.Fatalf("property %q cert mismatch", w.Name)
		}
		if len(w.Endpoints) == 0 || w.Endpoints[0].Path != "/" {
			t.Fatalf("property %q endpoints = %+v", w.Name, w.Endpoints)
		}
		if len(w.Sources) == 0 || w.Sources[0] != SourceCT {
			t.Fatalf("property %q sources = %v", w.Name, w.Sources)
		}
	}
}

func TestAppSpecificEndpoints(t *testing.T) {
	p, net, clk := fixture(t)
	p.PollCT(net.CT, clk.Now())
	for i := 0; i < 4; i++ {
		p.Tick(clk.Now())
		clk.Advance(time.Hour)
	}
	for _, w := range p.All() {
		if len(w.Endpoints) > 1 {
			if w.Endpoints[1].Path == "" {
				t.Fatalf("empty follow-up path on %q", w.Name)
			}
			return // at least one app-identified site fetched extra paths
		}
	}
	t.Skip("no Grafana/Prometheus/MOVEit titled sites in this universe")
}

func TestRefreshCadenceMonthly(t *testing.T) {
	p, net, clk := fixture(t)
	p.PollCT(net.CT, clk.Now())
	p.Tick(clk.Now())
	before := p.Journal().Stats().Appends

	// Within the month, re-ticking does not rescan (no new events, stable
	// config).
	clk.Advance(24 * time.Hour)
	p.Tick(clk.Now())
	if got := p.Journal().Stats().Appends; got != before {
		t.Fatalf("rescanned before refresh due: %d -> %d appends", before, got)
	}
}

func TestPassiveDNSAndRedirectSources(t *testing.T) {
	p, net, clk := fixture(t)
	p.ImportPassiveDNS(net.PassiveDNS(), clk.Now())
	if len(p.names) == 0 {
		t.Fatal("passive DNS names not imported")
	}
	n := len(p.names)
	p.ObserveRedirect("https://extra.site.example/login", clk.Now())
	if len(p.names) != n+1 {
		t.Fatal("redirect name not added")
	}
	p.ObserveRedirect("/relative/path", clk.Now())
	p.ObserveRedirect("https://10.0.0.1/x", clk.Now())
	if len(p.names) != n+1 {
		t.Fatal("bogus redirect targets accepted")
	}
}

func TestHostFromURL(t *testing.T) {
	cases := []struct{ in, want string }{
		{"https://a.b.example/path", "a.b.example"},
		{"http://a.b.example:8443/", "a.b.example"},
		{"a.b.example", "a.b.example"},
		{"/relative", ""},
		{"https://10.0.0.1/", ""},
	}
	for _, c := range cases {
		if got := hostFromURL(c.in); got != c.want {
			t.Errorf("hostFromURL(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestEvictionAfterSiteDisappears(t *testing.T) {
	p, net, clk := fixture(t)
	p.PollCT(net.CT, clk.Now())
	for i := 0; i < 4; i++ {
		p.Tick(clk.Now())
		clk.Advance(time.Hour)
	}
	props := p.All()
	if len(props) == 0 {
		t.Fatal("no properties")
	}
	victim := props[0].Name
	// Kill every host, so every site dies.
	for _, a := range append([]netip.Addr(nil), net.Addrs()...) {
		net.RemoveHost(a)
	}
	// March a month+ forward, ticking; the property must be evicted after
	// the failure grace window.
	for d := 0; d < 50; d++ {
		clk.Advance(24 * time.Hour)
		p.Tick(clk.Now())
	}
	if p.state[victim] != nil {
		t.Fatal("dead property not evicted")
	}
	evs := p.Journal().Events(victim)
	if evs[len(evs)-1].Kind != KindRemoved {
		t.Fatalf("last event = %s, want removed", evs[len(evs)-1].Kind)
	}
}

func TestNeverResolvingNameDropped(t *testing.T) {
	p, _, clk := fixture(t)
	p.AddName("ghost.example", SourcePDNS, clk.Now())
	for d := 0; d < 40; d++ {
		clk.Advance(24 * time.Hour)
		p.Tick(clk.Now())
	}
	if len(p.names) != 0 {
		t.Fatalf("ghost name retained: %d names", len(p.names))
	}
}

// TestRestoreRebuildsPropertiesFromJournal: the checkpointed state holds
// names and the CT cursor only. A pipeline restored from it over the same
// journal has the same properties — an evicted one stays gone, and LastSeen,
// which unchanged rescans move without journaling, comes from the names — and
// checkpoints the same bytes.
func TestRestoreRebuildsPropertiesFromJournal(t *testing.T) {
	p, net, clk := fixture(t)
	p.PollCT(net.CT, clk.Now())
	p.Tick(clk.Now())
	before := len(p.All())
	// Kill every other host: the sites served only by those die.
	for i, a := range append([]netip.Addr(nil), net.Addrs()...) {
		if i%2 == 0 {
			net.RemoveHost(a)
		}
	}
	for d := 0; d < 45; d++ {
		clk.Advance(24 * time.Hour)
		p.Tick(clk.Now())
	}
	props := p.All()
	if len(props) == before || len(props) == 0 {
		t.Fatalf("%d of %d properties left; want some evicted and some held", len(props), before)
	}
	moved := 0
	for _, w := range props {
		evs := p.Journal().Events(w.ID())
		if w.LastSeen.After(evs[len(evs)-1].Time) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no unchanged rescan moved LastSeen past the journal; the case is vacuous")
	}

	blob, err := json.Marshal(p.State())
	if err != nil {
		t.Fatal(err)
	}
	var st State
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	r := NewWithJournal(net, scanner, p.Journal())
	if err := r.Restore(st); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(props)
	if got, _ := json.Marshal(r.All()); string(got) != string(want) {
		t.Fatalf("restored properties differ:\n got %s\nwant %s", got, want)
	}
	if again, _ := json.Marshal(r.State()); string(again) != string(blob) {
		t.Fatal("restored pipeline checkpoints differently")
	}
}

func TestJournalRoundTrip(t *testing.T) {
	p, net, clk := fixture(t)
	p.PollCT(net.CT, clk.Now())
	p.Tick(clk.Now())
	for _, id := range p.Journal().Entities() {
		evs := p.Journal().Events(id)
		w, err := DecodeProperty(evs[0].Payload)
		if err != nil {
			t.Fatal(err)
		}
		if w.ID() != id {
			t.Fatalf("decoded ID %q != row key %q", w.ID(), id)
		}
		return
	}
	t.Fatal("no journaled properties")
}

// referenceTick is Tick as it rotated its queue before the queue was a
// ring: a slice, each visited name popped off its front and the kept ones
// appended to its back. It runs on p's queue taken out as a slice.
func referenceTick(p *Pipeline, now time.Time) int {
	queue := queueOf(p)
	p.queue = nameRing{}
	scanned := 0
	n := len(queue)
	for i := 0; i < n && scanned < ScansPerTick; i++ {
		name := queue[0]
		queue = queue[1:]
		ns := p.names[name]
		if now.Before(ns.nextScan) {
			queue = append(queue, name)
			continue
		}
		p.scanName(ns, now)
		scanned++
		if _, still := p.names[name]; still {
			queue = append(queue, name)
		}
	}
	for _, name := range queue {
		p.queue.push(name)
	}
	return scanned
}

// queueOf lists p's scan queue from the front.
func queueOf(p *Pipeline) []string {
	out := make([]string, p.queue.len())
	for i := range out {
		out[i] = p.queue.at(i)
	}
	return out
}

// TestTickRotatesLikeReference: over ticks that hit the scan budget, scan
// names that resolve and names that never do, and evict, Tick leaves the
// queue — checkpointed state — in the order the slice rotation does.
func TestTickRotatesLikeReference(t *testing.T) {
	p, net, clk := fixture(t)
	ref, refNet, _ := fixture(t)
	feed := func(p *Pipeline, net *simnet.Internet, now time.Time) {
		p.PollCT(net.CT, now)
		for i := range 40 {
			p.AddName("nx-"+strconv.Itoa(int(now.Unix()/3600)%50)+"-"+strconv.Itoa(i)+".example", SourcePDNS, now)
		}
	}
	longest := 0
	for tick := range 24 * 40 {
		now := clk.Now()
		feed(p, net, now)
		feed(ref, refNet, now)
		got, want := p.Tick(now), referenceTick(ref, now)
		if got != want || !slices.Equal(queueOf(p), queueOf(ref)) {
			t.Fatalf("tick %d: scanned %d, reference %d; queues of %d and %d names differ",
				tick, got, want, p.queue.len(), ref.queue.len())
		}
		longest = max(longest, p.queue.len())
		clk.Advance(time.Hour)
	}
	if longest <= ScansPerTick {
		t.Fatalf("the queue never outgrew the scan budget (%d names)", longest)
	}
}
