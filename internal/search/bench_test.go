package search

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"censysmap/internal/entity"
)

func populateIndex(n int) *Index { return populatePartitioned(n, 1) }

// populatePartitioned builds a deterministic n-doc index striped over parts
// partitions. Field cardinalities are chosen so queries span the selectivity
// spectrum: as.number matches ~n/500 docs, location.country ~n/5,
// services.protocol ~n/4.
func populatePartitioned(n, parts int) *Index {
	ix := NewPartitioned(parts)
	countries := []string{"US", "CN", "DE", "FR", "JP"}
	protos := []string{"HTTP", "SSH", "FTP", "MODBUS"}
	for i := 0; i < n; i++ {
		h := entity.NewHost(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}))
		h.Location = &entity.Location{Country: countries[i%len(countries)]}
		h.AS = &entity.AS{Number: uint32(64000 + i%500), Org: fmt.Sprintf("Org %d", i%100)}
		h.SetService(&entity.Service{
			Port: uint16(1 + i%65535), Transport: entity.TCP,
			Protocol: protos[i%len(protos)], Verified: true,
			Banner:     fmt.Sprintf("banner item %d", i),
			Attributes: map[string]string{"http.title": fmt.Sprintf("Console %d", i%50)},
		})
		ix.Upsert(h)
	}
	return ix
}

// disableCache turns the query cache off when the engine has one, so raw
// evaluation cost is measured rather than a cache hit. It is a no-op on
// engines without a cache (the seed engine), keeping seed-vs-new benchmark
// runs directly comparable.
func disableCache(ix *Index) {
	type cacheToggler interface{ SetQueryCache(bool) }
	if t, ok := any(ix).(cacheToggler); ok {
		t.SetQueryCache(false)
	}
}

// The 50k-doc corpora are shared across benchmarks: building them dominates
// any single bench's setup time.
var (
	bench50kOnce sync.Once
	bench50k     *Index // 1 partition
	bench50k8    *Index // 8 partitions
)

func bench50kIndexes() (*Index, *Index) {
	bench50kOnce.Do(func() {
		bench50k = populatePartitioned(50000, 1)
		bench50k8 = populatePartitioned(50000, 8)
	})
	return bench50k, bench50k8
}

func runQueryBench(b *testing.B, ix *Index, query string) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(query); err != nil {
			b.Fatal(err)
		}
	}
}

// eightServiceHost is a service-rich host; version v differs from version 0
// in one service's banner only.
func eightServiceHost(v int) *entity.Host {
	h := entity.NewHost(netip.MustParseAddr("10.0.0.1"))
	h.Location = &entity.Location{Country: "US", City: "Ashburn"}
	h.AS = &entity.AS{Number: 64500, Name: "EXAMPLE", Org: "Example Networks"}
	h.Labels = []string{"web"}
	for i := 0; i < 8; i++ {
		svc := &entity.Service{Port: uint16(8000 + i), Transport: entity.TCP, Protocol: "HTTP", Verified: true,
			Banner:     fmt.Sprintf("HTTP/1.1 200 OK server %d", i),
			Attributes: map[string]string{"http.title": "Welcome to nginx!", "http.server": "nginx/1.24.0"}}
		if i == 3 {
			svc.Banner = fmt.Sprintf("HTTP/1.1 200 OK version %d", v)
		}
		h.SetService(svc)
	}
	return h
}

func BenchmarkIndexUpsert(b *testing.B) {
	ix := NewPartitioned(1)
	h := entity.NewHost(netip.MustParseAddr("10.0.0.1"))
	h.SetService(&entity.Service{Port: 80, Transport: entity.TCP, Protocol: "HTTP",
		Banner: "HTTP/1.1 200 OK", Attributes: map[string]string{"http.title": "Welcome"}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.Upsert(h)
	}
}

func BenchmarkSearchTermQuery(b *testing.B) {
	ix := populateIndex(5000)
	disableCache(ix)
	runQueryBench(b, ix, `services.protocol: MODBUS and location.country: US`)
}

func BenchmarkSearchPhraseQuery(b *testing.B) {
	ix := populateIndex(5000)
	disableCache(ix)
	runQueryBench(b, ix, `services.http.title: "Console 7"`)
}

// High- vs low-selectivity AND ordering: both queries name the same three
// terms; one leads with the ~100-doc term, the other with the ~10k-doc term.
// A planner that orders conjuncts by estimated selectivity makes the two
// equally cheap; a left-to-right evaluator pays for the bad ordering.
func BenchmarkSearchANDHighSelectivityFirst(b *testing.B) {
	ix, _ := bench50kIndexes()
	disableCache(ix)
	runQueryBench(b, ix, `as.number: 64123 and services.protocol: HTTP and location.country: US`)
}

func BenchmarkSearchANDLowSelectivityFirst(b *testing.B) {
	ix, _ := bench50kIndexes()
	disableCache(ix)
	runQueryBench(b, ix, `location.country: US and services.protocol: HTTP and as.number: 64123`)
}

// NOT-heavy: two negated conjuncts. The seed engine materializes the full
// doc set once per NOT; a difference-rewriting planner subtracts posting
// lists from the positive term instead.
func BenchmarkSearchNotHeavy(b *testing.B) {
	ix, _ := bench50kIndexes()
	disableCache(ix)
	runQueryBench(b, ix, `location.country: US and not services.protocol: HTTP and not services.protocol: SSH`)
}

// Numeric range over 50k docs: full column scan (seed) vs two binary
// searches over a sorted (value, doc) column.
func BenchmarkSearchRange(b *testing.B) {
	ix, _ := bench50kIndexes()
	disableCache(ix)
	runQueryBench(b, ix, `services.port: [10000 TO 10200]`)
}

// Repeated identical query with the cache left on — the dashboard pattern.
// On the seed engine this is indistinguishable from raw evaluation.
func BenchmarkSearchCachedRepeat(b *testing.B) {
	ix, _ := bench50kIndexes()
	runQueryBench(b, ix, `location.country: US and services.protocol: HTTP and not services.tls: true`)
}

// Parallel execution across 8 partitions at 50k docs (cache off). On
// multi-core hardware the partitions evaluate concurrently; on any hardware
// the per-partition result merge must stay bit-identical to 1 partition.
func BenchmarkSearchParallel8Part(b *testing.B) {
	_, ix8 := bench50kIndexes()
	disableCache(ix8)
	runQueryBench(b, ix8, `services.protocol: MODBUS and location.country: US and not services.tls: true`)
}

// BenchmarkSearchLimited is the interactive page: a warm query over 8
// partitions with 2,500 matches, of which the first 25 are returned. Only
// the page is merged, so its cost does not grow with the match count.
func BenchmarkSearchLimited(b *testing.B) {
	_, ix8 := bench50kIndexes()
	const query = `location.country: US and services.protocol: HTTP`
	if _, total, err := ix8.SearchPage(query, 25); err != nil || total != 2500 {
		b.Fatalf("total = %d, %v; want 2500 matches", total, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix8.SearchPage(query, 25); err != nil {
			b.Fatal(err)
		}
	}
}

func TestIndexConcurrentAccess(t *testing.T) {
	ix := populateIndex(500)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h := entity.NewHost(netip.AddrFrom4([4]byte{172, 16, byte(g), byte(i)}))
				h.SetService(&entity.Service{Port: 80, Transport: entity.TCP, Protocol: "HTTP"})
				ix.Upsert(h)
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := ix.Search(`services.protocol: HTTP`); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if n, _ := ix.Count(`services.protocol: HTTP`); n == 0 {
		t.Fatal("concurrent writes lost")
	}
}

// BenchmarkIndexUpsertChanged re-upserts a service-rich host whose versions
// differ in one service: the per-event cost of a refresh that changed
// something.
func BenchmarkIndexUpsertChanged(b *testing.B) {
	ix := NewPartitioned(1)
	versions := []*entity.Host{eightServiceHost(1), eightServiceHost(2)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.Upsert(versions[i%2])
	}
}
