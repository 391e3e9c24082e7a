package predict

import (
	"encoding/json"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"censysmap/internal/entity"
)

// The naive oracle: Recommend exactly as it stood before the engine kept
// derived top-K lists — every list re-selected from its count map by a full
// sort on every use, candidates aggregated in a fresh map per host, the
// topology re-ranked per call from the host-port map. It reads the same
// count maps and never touches the caches, so any list the engine fails to
// drop after a count changed shows up as a differing Target.

func refTopPorts(m map[uint16]int, k int) []portCount {
	out := make([]portCount, 0, len(m))
	for p, c := range m {
		out = append(out, portCount{p, c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].count != out[j].count {
			return out[i].count > out[j].count
		}
		return out[i].port < out[j].port
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func (e *Engine) refDensePorts(base netip.Addr, members int) []uint16 {
	m := e.net24Ports[base]
	if m == nil || members == 0 {
		return nil
	}
	floor := e.cfg.MinScore
	if floor < 0.5 {
		floor = 0.5
	}
	var out []portCount
	for p, c := range m {
		if float64(c)/float64(members) >= floor {
			out = append(out, portCount{p, c})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].count != out[j].count {
			return out[i].count > out[j].count
		}
		return out[i].port < out[j].port
	})
	if len(out) > 2 {
		out = out[:2]
	}
	ports := make([]uint16, len(out))
	for i, pc := range out {
		ports[i] = pc.port
	}
	return ports
}

func (e *Engine) refCandidatesFor(n24 netip.Addr, known map[uint16]entity.Transport) []scored {
	agg := map[uint16]*scored{}
	upsert := func(p uint16, score float64, reason string) {
		if score > 1 {
			score = 1
		}
		s := agg[p]
		if s == nil {
			agg[p] = &scored{port: p, score: score, reason: reason}
			return
		}
		if score > s.score {
			s.score, s.reason = score, reason
		}
	}
	if m := e.net24Ports[n24]; m != nil {
		if members := len(e.hosts24[n24]); members > 0 {
			for _, pc := range refTopPorts(m, e.cfg.TopK) {
				upsert(pc.port, float64(pc.count)/float64(members), "net24")
			}
		}
	}
	qs := make([]uint16, 0, len(known))
	for q := range known {
		qs = append(qs, q)
	}
	sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
	for _, q := range qs {
		if fn := e.fullPortHosts[q]; fn > 0 {
			if m := e.fullCooc[q]; m != nil {
				for _, pc := range refTopPorts(m, e.cfg.TopK) {
					upsert(pc.port, float64(pc.count)/float64(fn), "cooc")
				}
			}
			continue
		}
		qn := e.portHosts[q]
		if qn == 0 {
			continue
		}
		if m := e.cooc[q]; m != nil {
			for _, pc := range refTopPorts(m, e.cfg.TopK) {
				upsert(pc.port, float64(pc.count)/float64(qn), "cooc")
			}
		}
	}
	total := len(e.hostPorts)
	out := make([]scored, 0, len(agg))
	for _, s := range agg {
		if s.score < e.cfg.MinScore {
			continue
		}
		if total > 0 {
			s.prior = float64(e.portHosts[s.port]) / float64(total)
		}
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		if out[i].prior != out[j].prior {
			return out[i].prior > out[j].prior
		}
		return out[i].port < out[j].port
	})
	if len(out) > e.cfg.TopK {
		out = out[:e.cfg.TopK]
	}
	return out
}

// refRanked is the engine's ranking recounted from the host-port map: no
// cache, and none of the per-/24 tables Topology.Ranked reads. A /24 counts
// its hosts and their ports; a /16 counts its /24s, excluded ones included.
func (e *Engine) refRanked() []netip.Addr {
	type node struct {
		base            netip.Addr
		hosts, services int
	}
	less := func(a, b node) bool {
		if a.services != b.services {
			return a.services > b.services
		}
		if a.hosts != b.hosts {
			return a.hosts > b.hosts
		}
		return a.base.Less(b.base)
	}
	n16s := map[netip.Addr]*node{}
	n24s := map[netip.Addr]map[netip.Addr]*node{} // /16 -> /24 -> counts
	for addr, ports := range e.hostPorts {
		b := addr.As4()
		n24 := netip.AddrFrom4([4]byte{b[0], b[1], b[2], 0})
		n16 := netip.AddrFrom4([4]byte{b[0], b[1], 0, 0})
		if n16s[n16] == nil {
			n16s[n16] = &node{base: n16}
			n24s[n16] = map[netip.Addr]*node{}
		}
		if n24s[n16][n24] == nil {
			n24s[n16][n24] = &node{base: n24}
		}
		for _, n := range []*node{n16s[n16], n24s[n16][n24]} {
			n.hosts++
			n.services += len(ports)
		}
	}
	var tops []node
	for _, n := range n16s {
		tops = append(tops, *n)
	}
	sort.Slice(tops, func(i, j int) bool { return less(tops[i], tops[j]) })
	var out []netip.Addr
	for _, top := range tops {
		var leaves []node
		for base, leaf := range n24s[top.base] {
			if !e.topo.excluded24(base) {
				leaves = append(leaves, *leaf)
			}
		}
		sort.Slice(leaves, func(i, j int) bool { return less(leaves[i], leaves[j]) })
		for _, leaf := range leaves {
			out = append(out, leaf.base)
		}
	}
	return out
}

// refRecommend is Recommend over the naive pieces above.
func (e *Engine) refRecommend(now time.Time, budget int) []Target {
	e.mu.Lock()
	defer e.mu.Unlock()
	for tgt, at := range e.suggested {
		if now.Sub(at) >= e.cfg.Cooldown {
			delete(e.suggested, tgt)
		}
	}
	if budget <= 0 || len(e.hostPorts) == 0 {
		return nil
	}
	ranked := e.refRanked()
	if len(ranked) == 0 {
		return nil
	}
	expandBudget := int(float64(budget) * e.cfg.ExpandFraction)
	refineBudget := budget - expandBudget
	var out []Target
	visited := 0
	for visited < len(ranked) && len(out) < refineBudget {
		base := ranked[(e.cursor+visited)%len(ranked)]
		visited++
		for _, addr := range e.hosts24[base] {
			if len(out) >= refineBudget {
				break
			}
			known := e.hostPorts[addr]
			for _, cand := range e.refCandidatesFor(base, known) {
				if len(out) >= refineBudget {
					break
				}
				e.emit(&out, Target{Addr: addr, Port: cand.port,
					Transport: entity.TCP, Reason: cand.reason}, known, now)
			}
		}
	}
	e.cursor = (e.cursor + visited) % len(ranked)
	if expandBudget > 0 {
		scanned := 0
		for scanned < len(ranked) && len(out) < budget {
			base := ranked[(e.expandCursor+scanned)%len(ranked)]
			scanned++
			members := e.hosts24[base]
			if len(members) < e.cfg.MinExpandHosts {
				continue
			}
			ports := e.refDensePorts(base, len(members))
			if len(ports) == 0 {
				continue
			}
			for off := 1; off <= 254 && len(out) < budget; off++ {
				addr := addrAt(base, uint8(off))
				if _, seen := e.hostPorts[addr]; seen {
					continue
				}
				for _, p := range ports {
					if len(out) >= budget {
						break
					}
					e.emit(&out, Target{Addr: addr, Port: p,
						Transport: entity.TCP, Reason: "expand"}, nil, now)
				}
			}
		}
		e.expandCursor = (e.expandCursor + scanned) % len(ranked)
	}
	return out
}

// diffPair is the engine under test and the oracle's engine, fed the same
// calls.
type diffPair struct{ got, want *Engine }

func (p diffPair) each(f func(*Engine)) { f(p.got); f(p.want) }

// TestRecommendMatchesNaiveReference drives the cached engine and the naive
// oracle with one seeded stream of model mutations and Recommend calls and
// requires identical targets at every tick and byte-identical State JSON at
// the end. The stream revisits a small port and address pool on purpose:
// counts tie, cross the TopK boundary in both directions, and empty out, which
// is where a list that outlived its count map would differ.
func TestRecommendMatchesNaiveReference(t *testing.T) {
	const ticks = 240
	ports := []uint16{22, 25, 80, 443, 445, 502, 1883, 2222, 3306, 5432, 8080, 8443, 9200, 11211}
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.Cooldown = 6 * time.Hour // targets come back, so later ticks still emit
		if seed == 4 {
			cfg.TopK = 1 // fewer slots than densePorts reads
		}
		p := diffPair{New(cfg), New(cfg)}
		randAddr := func() netip.Addr {
			return netip.AddrFrom4([4]byte{10, byte(rng.Intn(2)), byte(rng.Intn(6)), byte(1 + rng.Intn(40))})
		}
		now := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
		var live []Target // observed and not yet evicted
		var checkpoint []byte
		var checkpointLive []Target
		emitted := 0
		for tick := 0; tick < ticks; tick++ {
			now = now.Add(time.Hour)
			for i, n := 0, rng.Intn(12); i < n; i++ {
				switch r := rng.Intn(20); {
				case r == 0:
					a := randAddr()
					p.each(func(e *Engine) { e.ObserveFull(a) })
				case r < 3 && len(live) > 0:
					j := rng.Intn(len(live))
					tgt := live[j]
					live = append(live[:j], live[j+1:]...)
					p.each(func(e *Engine) { e.RecordEvicted(tgt.Addr, tgt.Port, tgt.Transport, now) })
				case r < 7 && len(live) > 0: // a refresh: changes no count
					tgt := live[rng.Intn(len(live))]
					p.each(func(e *Engine) { e.Observe(tgt.Addr, tgt.Port, tgt.Transport) })
				default:
					// Skewed port choice, so some counts lead and others tie.
					tgt := Target{Addr: randAddr(), Port: ports[rng.Intn(1+rng.Intn(len(ports)))], Transport: entity.TCP}
					live = append(live, tgt)
					p.each(func(e *Engine) { e.Observe(tgt.Addr, tgt.Port, tgt.Transport) })
				}
			}
			if tick%37 == 5 {
				var ex []netip.Prefix
				if tick%2 == 0 {
					ex = []netip.Prefix{netip.MustParsePrefix("10.0.2.0/24"), netip.MustParsePrefix("10.1.0.16/28")}
				}
				p.each(func(e *Engine) { e.SetExcluded(ex) })
			}
			switch tick {
			case ticks / 4:
				var err error
				if checkpoint, err = json.Marshal(p.want.State()); err != nil {
					t.Fatal(err)
				}
				checkpointLive = append([]Target(nil), live...)
			case ticks / 2:
				// Crash recovery mid-stream, onto a checkpoint older than
				// the model: every list cached since then is stale. Restore
				// adopts the State it is handed, so each engine decodes its
				// own.
				p.each(func(e *Engine) {
					var st State
					if err := json.Unmarshal(checkpoint, &st); err != nil {
						t.Fatal(err)
					}
					e.Restore(st)
				})
				live = checkpointLive
			}
			budget := 10 + rng.Intn(60)
			got, want := p.got.Recommend(now, budget), p.want.refRecommend(now, budget)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d tick %d: Recommend diverged from the naive reference\n got %v\nwant %v", seed, tick, got, want)
			}
			emitted += len(got)
		}
		if emitted < ticks {
			t.Fatalf("seed %d: only %d targets over %d ticks; the stream does not exercise Recommend", seed, emitted, ticks)
		}
		gotJSON, err := json.Marshal(p.got.State())
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(p.want.State())
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("seed %d: State JSON differs from the naive reference's", seed)
		}
	}
}
