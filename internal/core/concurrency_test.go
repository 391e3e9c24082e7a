package core

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
)

// These tests pin down the tentpole guarantee of the sharded write path: the
// dataset a run produces is a function of the universe seed alone, never of
// the shard count or the number of interrogation workers.

// concUniverse is like testUniverse but keeps the default loss/outage rates
// (so the path-loss draws are exercised) and raises the pseudo-host rate so
// the filter has something to flag in a /23.
func concUniverse(t *testing.T, seed uint64) (*simnet.Internet, *simclock.Sim) {
	t.Helper()
	cfg := simnet.DefaultConfig()
	cfg.Prefix = netip.MustParsePrefix("10.0.0.0/23")
	cfg.Seed = seed
	cfg.CloudBlocks = 1
	cfg.WebProperties = 15
	cfg.PseudoHostRate = 0.05
	clk := simclock.New()
	return simnet.New(cfg, clk), clk
}

func concMap(t *testing.T, net *simnet.Internet, shards, workers int) *Map {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CloudBlocks = 1
	cfg.Shards = shards
	cfg.InterroWorkers = workers
	m, err := New(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pseudoFlagged gathers the addresses the pseudo-host filter has flagged.
func pseudoFlagged(m *Map) map[netip.Addr]bool {
	out := map[netip.Addr]bool{}
	for _, a := range m.flaggedHosts(flagPseudo) {
		out[a] = true
	}
	return out
}

func TestPipelineDeterministicAcrossWorkerCounts(t *testing.T) {
	net1, _ := concUniverse(t, 7)
	net8, _ := concUniverse(t, 7)
	m1 := concMap(t, net1, 1, 1) // the pre-sharding serial pipeline
	m8 := concMap(t, net8, 8, 8)

	runFor(m1, 3*24*time.Hour)
	runFor(m8, 3*24*time.Hour)

	r1 := m1.CurrentServices(true)
	r8 := m8.CurrentServices(true)
	if len(r1) == 0 {
		t.Fatal("serial run produced no services; universe too quiet for the test")
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Errorf("dataset diverged: serial has %d records, 8x8 has %d", len(r1), len(r8))
		seen := map[ServiceRecord]bool{}
		for _, r := range r1 {
			seen[r] = true
		}
		for _, r := range r8 {
			if !seen[r] {
				t.Errorf("only in 8x8 run: %+v", r)
			}
		}
	}

	// The pipeline counters are part of the determinism contract too: the
	// same probes must be sent, not just the same dataset kept.
	if s1, s8 := m1.Stats(), m8.Stats(); s1 != s8 {
		t.Errorf("run stats diverged:\n serial %+v\n 8x8    %+v", s1, s8)
	}
	if o1, n1 := m1.WriteStats(); true {
		if o8, n8 := m8.WriteStats(); o1 != o8 || n1 != n8 {
			t.Errorf("write stats diverged: serial (%d,%d) vs 8x8 (%d,%d)", o1, n1, o8, n8)
		}
	}

	// The partitioned search index must answer queries identically.
	for _, q := range []string{
		`services.protocol: HTTP`,
		`location.country: US and services.protocol: HTTP`,
		`services.port: 443`,
	} {
		c1, err := m1.Count(q)
		if err != nil {
			t.Fatalf("count %q: %v", q, err)
		}
		c8, err := m8.Count(q)
		if err != nil {
			t.Fatalf("count %q: %v", q, err)
		}
		if c1 != c8 {
			t.Errorf("query %q: serial=%d 8x8=%d", q, c1, c8)
		}
	}

	// Journal entity sets match (sorted by construction).
	e1 := m1.Journal().Entities()
	e8 := m8.Journal().Entities()
	if !reflect.DeepEqual(e1, e8) {
		t.Errorf("journal entities diverged: %d vs %d", len(e1), len(e8))
	}
}

func TestPseudoHostsFlaggedIdenticallyAcrossWorkerCounts(t *testing.T) {
	net1, _ := concUniverse(t, 11)
	net8, _ := concUniverse(t, 11)
	m1 := concMap(t, net1, 1, 1)
	m8 := concMap(t, net8, 8, 8)

	runFor(m1, 2*24*time.Hour)
	runFor(m8, 2*24*time.Hour)

	p1 := pseudoFlagged(m1)
	p8 := pseudoFlagged(m8)
	if len(p1) == 0 {
		t.Fatal("no pseudo-hosts flagged; raise PseudoHostRate so the filter is exercised")
	}
	if !reflect.DeepEqual(p1, p8) {
		t.Errorf("pseudo-host sets diverged: serial flagged %d, 8x8 flagged %d", len(p1), len(p8))
	}

	// A flagged pseudo-host must be absent from the exported dataset and the
	// search index, whichever worker count built them.
	for _, m := range []*Map{m1, m8} {
		flagged := pseudoFlagged(m)
		for _, r := range m.CurrentServices(true) {
			if flagged[r.Addr] {
				t.Errorf("pseudo-host %v leaked into the dataset (port %d)", r.Addr, r.Port)
			}
		}
		for a := range flagged {
			if _, ok := m.HostCurrent(a); ok {
				t.Errorf("pseudo-host %v still served by HostCurrent", a)
			}
		}
	}
}

func TestExcludedPrefixNeverInterrogatedConcurrently(t *testing.T) {
	excluded := netip.MustParsePrefix("10.0.0.0/26")
	for _, tc := range []struct {
		name            string
		shards, workers int
	}{
		{"serial", 1, 1},
		{"workers8", 8, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, _ := concUniverse(t, 3)
			cfg := DefaultConfig()
			cfg.CloudBlocks = 1
			cfg.Shards = tc.shards
			cfg.InterroWorkers = tc.workers
			cfg.Excluded = []netip.Prefix{excluded}
			m, err := New(cfg, net)
			if err != nil {
				t.Fatal(err)
			}
			runFor(m, 2*24*time.Hour)

			// The prefix must actually contain live services, or the test
			// proves nothing.
			inPrefix := 0
			for _, s := range net.LiveServices(net.Clock().Now(), false) {
				if excluded.Contains(s.Addr) {
					inPrefix++
				}
			}
			if inPrefix == 0 {
				t.Fatal("no live services inside the excluded prefix; test universe too small")
			}

			// Nothing inside the prefix may appear in the dataset, the
			// journal (any interrogation that found a service journals an
			// event), or the search index.
			for _, r := range m.CurrentServices(true) {
				if excluded.Contains(r.Addr) {
					t.Errorf("excluded address %v was interrogated and recorded (port %d)", r.Addr, r.Port)
				}
			}
			for _, id := range m.Journal().Entities() {
				a, err := netip.ParseAddr(id)
				if err != nil {
					continue
				}
				if excluded.Contains(a) {
					t.Errorf("excluded address %v has a journal history", a)
				}
			}
			hosts, err := m.Search(`services.port: 80`)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range hosts {
				if excluded.Contains(h.IP) {
					t.Errorf("excluded address %v indexed", h.IP)
				}
			}
		})
	}
}

// TestAddExclusionRetiresDataUnderConcurrency exercises the dynamic opt-out
// path (Appendix D) while the sharded pipeline is running with 8 workers:
// retirement must remove every record in the prefix and the pipeline must
// not re-add any afterwards.
func TestAddExclusionRetiresDataUnderConcurrency(t *testing.T) {
	net, _ := concUniverse(t, 5)
	m := concMap(t, net, 8, 8)
	runFor(m, 2*24*time.Hour)

	prefix := netip.MustParsePrefix("10.0.1.0/26")
	had := 0
	for _, r := range m.CurrentServices(true) {
		if prefix.Contains(r.Addr) {
			had++
		}
	}
	if had == 0 {
		t.Fatal("no services inside the prefix before opt-out; test universe too small")
	}

	if _, err := m.AddExclusion(prefix, "operator"); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		for _, r := range m.CurrentServices(false) {
			if prefix.Contains(r.Addr) {
				t.Errorf("%s: record for excluded %v:%d still exported", when, r.Addr, r.Port)
			}
		}
	}
	check("immediately after AddExclusion")

	runFor(m, 2*24*time.Hour)
	check("after two more days of scanning")
}
