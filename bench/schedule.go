package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"net/url"
	"sort"
	"strings"

	"censysmap/internal/entity"
	"censysmap/internal/simnet"
)

// Request kinds, also the latency classes.
const (
	kindLookup = iota
	kindSearch
	kindExport
	kindCount
)

// Popularity is Zipf, P(k) proportional to (v+k)^-s, with the offset v chosen
// so that no single key carries the result: with v = 1 the hottest host took
// 22% of all lookups and lookup_p50_us was that one host's record size, which
// differed by up to 48% between seeds. With these offsets the hottest host
// takes 0.7% (the hottest hundred still a third) and the hottest query 10%.
const (
	poolSize    = 64
	lookupZipfS = 1.2
	lookupZipfV = 50
	queryZipfS  = 1.1
	queryZipfV  = 4
	// exportQueries is how many of the pool's most popular queries export
	// pages are drawn from: as many as the front end pins by default
	// (serve.Config.MaxPins). Drawn from all 64, three requests in a hundred
	// re-materialized an evicted result set at a hundred times the mean
	// request cost, and serve_rps measured how many of those a chunk drew.
	exportQueries = 16
)

// vocab is what the query templates draw from: the universe's protocols,
// countries and ports, most frequent first.
type vocab struct {
	Protocols []string
	Countries []string
	Ports     []uint16
}

func vocabOf(truth []simnet.ServiceRef) vocab {
	protos, countries, ports := map[string]int{}, map[string]int{}, map[uint16]int{}
	for _, s := range truth {
		protos[s.Protocol]++
		countries[s.Country]++
		ports[s.Port]++
	}
	var v vocab
	v.Protocols = byCount(protos)
	v.Countries = byCount(countries)
	v.Ports = byCount(ports)
	return v
}

func byCount[K string | uint16](m map[K]int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}

// poolQuery is one search query together with an independent statement of
// what it means, used to check the index's answer by brute force.
type poolQuery struct {
	Text  string
	match func(h *entity.Host) bool
}

func anyService(h *entity.Host, pred func(*entity.Service) bool) bool {
	for _, s := range h.ActiveServices() {
		if pred(s) {
			return true
		}
	}
	return false
}

func hasProto(p string) func(*entity.Host) bool {
	return func(h *entity.Host) bool {
		return anyService(h, func(s *entity.Service) bool { return strings.EqualFold(s.Protocol, p) })
	}
}

func hasPortIn(lo, hi uint16) func(*entity.Host) bool {
	return func(h *entity.Host) bool {
		return anyService(h, func(s *entity.Service) bool { return s.Port >= lo && s.Port <= hi })
	}
}

func hasTLS(h *entity.Host) bool {
	return anyService(h, func(s *entity.Service) bool { return s.TLS })
}

func inCountry(c string) func(*entity.Host) bool {
	return func(h *entity.Host) bool { return h.Location != nil && strings.EqualFold(h.Location.Country, c) }
}

// buildPool derives up to poolSize distinct queries from eight templates.
// Query i uses template i%8 filled with the (i/8)-th most frequent protocol,
// port or country of this universe, so rank i means the same kind of query
// with the same kind of selectivity on every seed; only the universe behind
// it changes. A pool whose popular queries were drawn at random made
// serve_rps and search_p50_us differ by 20-30% from seed to seed, because
// one seed's hot query was a two-host protocol and the next one's matched
// half the map.
func buildPool(v vocab) []poolQuery {
	proto := func(j int) string { return v.Protocols[j%len(v.Protocols)] }
	country := func(j int) string { return v.Countries[j%len(v.Countries)] }
	portRange := func(j int) (uint16, uint16) { return uint16(1000 * j), uint16(1000*j + 999) }
	var pool []poolQuery
	seen := map[string]bool{}
	for i := 0; i < poolSize; i++ {
		j := i / 8
		var q poolQuery
		switch i % 8 {
		case 0:
			p := proto(j)
			q = poolQuery{"services.protocol: " + p, hasProto(p)}
		case 1:
			n := v.Ports[j%len(v.Ports)]
			q = poolQuery{fmt.Sprintf("services.port: %d", n), hasPortIn(n, n)}
		case 2:
			lo, hi := portRange(j)
			q = poolQuery{fmt.Sprintf("services.port: [%d TO %d]", lo, hi), hasPortIn(lo, hi)}
		case 3:
			c := country(j)
			q = poolQuery{"location.country: " + c, inCountry(c)}
		case 4:
			p, c := proto(j), country(j+1)
			mp, mc := hasProto(p), inCountry(c)
			q = poolQuery{"services.protocol: " + p + " and location.country: " + c,
				func(h *entity.Host) bool { return mp(h) && mc(h) }}
		case 5:
			p := proto(j)
			mp := hasProto(p)
			q = poolQuery{"services.protocol: " + p + " and not services.tls: true",
				func(h *entity.Host) bool { return mp(h) && !hasTLS(h) }}
		case 6:
			p1, p2 := proto(j), proto(j+8)
			m1, m2 := hasProto(p1), hasProto(p2)
			q = poolQuery{"services.protocol: " + p1 + " or services.protocol: " + p2,
				func(h *entity.Host) bool { return m1(h) || m2(h) }}
		case 7:
			lo, hi := portRange(j)
			mr := hasPortIn(lo, hi)
			q = poolQuery{fmt.Sprintf("services.tls: true and services.port: [%d TO %d]", lo, hi),
				func(h *entity.Host) bool { return hasTLS(h) && mr(h) }}
		}
		if !seen[q.Text] {
			seen[q.Text] = true
			pool = append(pool, q)
		}
	}
	return pool
}

// target is one distinct request; the schedule is a sequence of indices into
// the target table, so 48 000 scheduled requests cost 4 bytes each.
type target struct {
	Kind  uint8
	URL   *url.URL
	Addr  netip.Addr // lookups only
	Plain bool       // a /v2/hosts/{ip} read whose body verify can check
}

type schedule struct {
	Targets []target
	Order   []uint32
	Pool    []poolQuery
}

// buildSchedule draws n requests: 70% lookups over hosts (Zipf, 1 in 10 a
// /history read), 20% searches over the pool and 10% export pages over its
// first exportQueries queries (Zipf).
// hosts must be in a fixed order; the same inputs give the same schedule.
func buildSchedule(seed uint64, hosts []netip.Addr, pool []poolQuery, n int) (*schedule, error) {
	if len(hosts) < 2 || len(pool) < 2 {
		return nil, fmt.Errorf("schedule: need at least 2 hosts and 2 queries, have %d and %d", len(hosts), len(pool))
	}
	rng := rand.New(rand.NewSource(int64(seed ^ 0x5C4ED)))
	// Popularity is independent of address order.
	rank := rng.Perm(len(hosts))
	hostZipf := rand.NewZipf(rng, lookupZipfS, lookupZipfV, uint64(len(hosts)-1))
	queryZipf := rand.NewZipf(rng, queryZipfS, queryZipfV, uint64(len(pool)-1))
	exportZipf := rand.NewZipf(rng, queryZipfS, queryZipfV, uint64(min(len(pool), exportQueries)-1))

	s := &schedule{Pool: pool, Order: make([]uint32, 0, n)}
	index := map[string]uint32{}
	add := func(t target, raw string) error {
		id, ok := index[raw]
		if !ok {
			u, err := url.ParseRequestURI(raw)
			if err != nil {
				return fmt.Errorf("schedule: %w", err)
			}
			t.URL = u
			id = uint32(len(s.Targets))
			index[raw] = id
			s.Targets = append(s.Targets, t)
		}
		s.Order = append(s.Order, id)
		return nil
	}
	for i := 0; i < n; i++ {
		var err error
		switch draw := rng.Intn(10); {
		case draw < 7:
			addr := hosts[rank[hostZipf.Uint64()]]
			raw, plain := "/v2/hosts/"+addr.String(), true
			if rng.Intn(10) == 0 {
				raw, plain = raw+"/history", false
			}
			err = add(target{Kind: kindLookup, Addr: addr, Plain: plain}, raw)
		case draw < 9:
			q := pool[queryZipf.Uint64()].Text
			err = add(target{Kind: kindSearch}, "/v2/hosts/search?limit=25&q="+url.QueryEscape(q))
		default:
			q := pool[exportZipf.Uint64()].Text
			err = add(target{Kind: kindExport}, "/v2/export/hosts?per_page=100&q="+url.QueryEscape(q))
		}
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// render writes the schedule as one request line per entry, for comparing
// two schedules byte for byte.
func (s *schedule) render() []byte {
	var b bytes.Buffer
	for _, q := range s.Pool {
		b.WriteString(q.Text)
		b.WriteByte('\n')
	}
	for _, id := range s.Order {
		b.WriteString(s.Targets[id].URL.RequestURI())
		b.WriteByte('\n')
	}
	return b.Bytes()
}
