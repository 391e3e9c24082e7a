// Command loadgen drives the serving tier with a deterministic open-loop
// synthetic workload and reports latency percentiles and the maximum
// sustainable request rate:
//
//	loadgen -universe 10.0.0.0/22 -days 2 -qps 200,400,800 -requests 1000
//	loadgen -cluster-nodes 3 ...          # same workload through a cluster
//
// The workload is deterministic for a fixed -workload-seed: a Zipf-skewed
// query mix over the live dataset (point lookups and history reads over
// hot IPs, interactive searches, bulk-export pages) with exponential
// inter-arrival gaps generated up front. Arrivals are open-loop — the
// dispatcher fires each request at its scheduled instant whether or not
// earlier ones have completed, so the offered rate never adapts to server
// slowdown and overload is visible as shed/latency rather than hidden by
// client back-pressure. Latency is measured from the scheduled arrival, not
// the dispatch, so queueing delay is charged to the server (no coordinated
// omission).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"censysmap"
	"censysmap/internal/cluster"
	"censysmap/internal/serve"
)

// benchKey is the API key of the load generator's tenant (internal tier:
// no rate limit, so every rejection the sweep observes is admission-control
// shedding, not the generator tripping its own bucket).
const benchKey = "loadgen-bench-key"

// searchQueries is the interactive-search pool; the Zipf draw makes the
// head queries dominate, exercising the result cache the way repeated
// dashboard traffic does.
var searchQueries = []string{
	`services.protocol: HTTP`,
	`services.tls: true`,
	`services.port: [1 TO 1024]`,
	`services.protocol: SSH`,
	`services.protocol: HTTP and services.tls: true`,
	`services.protocol: MODBUS`,
}

// genReq is one scheduled request.
type genReq struct {
	at    time.Duration // offset from level start
	url   string
	class string // lookup | search | export
}

// mixWeights parses "-mix lookup=70,search=20,export=10".
func mixWeights(raw string) (map[string]int, error) {
	out := map[string]int{}
	for _, entry := range strings.Split(raw, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok {
			return nil, fmt.Errorf("bad -mix entry %q", entry)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad -mix weight %q", entry)
		}
		out[k] = n
	}
	for k := range out {
		if k != "lookup" && k != "search" && k != "export" {
			return nil, fmt.Errorf("unknown -mix class %q", k)
		}
	}
	if out["lookup"]+out["search"]+out["export"] == 0 {
		return nil, fmt.Errorf("-mix weights sum to zero")
	}
	return out, nil
}

// buildSchedule pre-generates one level's request list: Zipf query/target
// draws and exponential inter-arrival gaps, all from one seeded source.
func buildSchedule(rng *rand.Rand, addrs []string, mix map[string]int, n int, qps float64) []genReq {
	addrZipf := rand.NewZipf(rng, 1.2, 1, uint64(len(addrs)-1))
	queryZipf := rand.NewZipf(rng, 1.4, 1, uint64(len(searchQueries)-1))
	total := mix["lookup"] + mix["search"] + mix["export"]
	reqs := make([]genReq, 0, n)
	var at time.Duration
	for i := 0; i < n; i++ {
		at += time.Duration(rng.ExpFloat64() / qps * float64(time.Second))
		draw := rng.Intn(total)
		var rq genReq
		switch {
		case draw < mix["lookup"]:
			addr := addrs[addrZipf.Uint64()]
			rq = genReq{url: "/v2/hosts/" + addr, class: "lookup"}
			if rng.Intn(10) == 0 {
				rq.url += "/history"
			}
		case draw < mix["lookup"]+mix["search"]:
			q := searchQueries[queryZipf.Uint64()]
			rq = genReq{url: "/v2/hosts/search?limit=25&q=" + urlQueryEscape(q), class: "search"}
		default:
			q := searchQueries[queryZipf.Uint64()]
			rq = genReq{url: "/v2/export/hosts?per_page=100&q=" + urlQueryEscape(q), class: "export"}
		}
		rq.at = at
		reqs = append(reqs, rq)
	}
	return reqs
}

func urlQueryEscape(q string) string { return url.QueryEscape(q) }

// levelResult is one offered-rate step of the sweep.
type levelResult struct {
	offered     float64
	achieved    float64
	served      int
	shed        int
	rateLimited int
	errors      int
	p50, p99    time.Duration
}

// runLevel fires one schedule open-loop against the handler.
func runLevel(h http.Handler, reqs []genReq) levelResult {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		lat []time.Duration
		res levelResult
	)
	start := time.Now()
	for i := range reqs {
		rq := &reqs[i]
		target := start.Add(rq.at)
		if d := time.Until(target); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, rq.url, nil)
			req.Header.Set("Authorization", "Bearer "+benchKey)
			h.ServeHTTP(rec, req)
			l := time.Since(target)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case rec.Code < 400:
				res.served++
				lat = append(lat, l)
			case rec.Code == http.StatusServiceUnavailable:
				res.shed++
			case rec.Code == http.StatusTooManyRequests:
				res.rateLimited++
			default:
				res.errors++
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	res.achieved = float64(len(reqs)) / elapsed.Seconds()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		res.p50 = lat[len(lat)*50/100]
		res.p99 = lat[len(lat)*99/100]
	}
	return res
}

// sustainable reports whether a level held its offered rate: under 1%
// rejected and the dispatcher kept up within 10%.
func (r levelResult) sustainable() bool {
	total := r.served + r.shed + r.rateLimited + r.errors
	if total == 0 {
		return false
	}
	rejected := float64(r.shed+r.rateLimited+r.errors) / float64(total)
	return rejected <= 0.01 && r.achieved >= 0.9*r.offered
}

func main() {
	universe := flag.String("universe", "10.0.0.0/22", "IPv4 universe prefix")
	days := flag.Int("days", 2, "simulated warmup days before the sweep")
	seed := flag.Uint64("seed", 1, "universe seed")
	workloadSeed := flag.Int64("workload-seed", 7, "workload generator seed")
	qpsList := flag.String("qps", "1000,2000,4000,8000", "offered request rates to sweep, comma-separated")
	requests := flag.Int("requests", 2000, "requests per sweep level")
	mixFlag := flag.String("mix", "lookup=70,search=20,export=10", "request class weights")
	clusterNodes := flag.Int("cluster-nodes", 0, "drive an N-node cluster (0 = serial)")
	capacity := flag.Int("capacity", 64, "serving-tier admission capacity")
	flag.Parse()

	prefix, err := netip.ParsePrefix(*universe)
	if err != nil {
		fatal("bad -universe:", err)
	}
	mix, err := mixWeights(*mixFlag)
	if err != nil {
		fatal(err)
	}
	var levels []float64
	for _, s := range strings.Split(*qpsList, ",") {
		q, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || q <= 0 {
			fatal("bad -qps entry:", s)
		}
		levels = append(levels, q)
	}

	sys, err := censysmap.NewSystem(censysmap.Options{Universe: prefix, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	label := "serial"
	advance := func(d time.Duration) { sys.Run(d) }
	if *clusterNodes > 0 {
		cl, err := cluster.New(sys.Map(), cluster.Config{Nodes: *clusterNodes, Telemetry: sys.Metrics()})
		if err != nil {
			fatal(err)
		}
		label = fmt.Sprintf("cluster%d", *clusterNodes)
		advance = func(d time.Duration) {
			if err := cl.Step(func() { sys.Run(d) }); err != nil {
				fatal("replication:", err)
			}
		}
	}
	fmt.Printf("universe %v (%s): warming up %d simulated days...\n", prefix, label, *days)
	warmStart := time.Now()
	advance(time.Duration(*days) * 24 * time.Hour)
	fmt.Printf("warmup done in %v: %d services mapped\n",
		time.Since(warmStart).Round(time.Millisecond), len(sys.Services()))

	front, err := sys.Frontend(serve.Config{
		Tenants:  []serve.Tenant{{Name: "loadgen", Key: benchKey, Tier: "internal"}},
		Capacity: *capacity,
	})
	if err != nil {
		fatal(err)
	}

	// Target pool: every mapped address, sorted (Services() is sorted), so
	// Zipf rank i names the same host on every run.
	seen := map[string]bool{}
	var addrs []string
	for _, rec := range sys.Services() {
		if a := rec.Addr.String(); !seen[a] {
			seen[a] = true
			addrs = append(addrs, a)
		}
	}
	if len(addrs) < 2 {
		fatal("universe too small: fewer than 2 mapped hosts")
	}

	rng := rand.New(rand.NewSource(*workloadSeed))
	fmt.Printf("\n%-10s %10s %8s %6s %8s %8s %9s %9s\n",
		"offered", "achieved", "served", "shed", "limited", "errors", "p50", "p99")
	maxSustainable := 0.0
	for _, qps := range levels {
		reqs := buildSchedule(rng, addrs, mix, *requests, qps)
		r := runLevel(front, reqs)
		r.offered = qps
		if r.sustainable() && qps > maxSustainable {
			maxSustainable = qps
		}
		fmt.Printf("%-10.0f %10.0f %8d %6d %8d %8d %9s %9s\n",
			r.offered, r.achieved, r.served, r.shed, r.rateLimited, r.errors,
			r.p50.Round(time.Microsecond), r.p99.Round(time.Microsecond))
	}
	fmt.Printf("\nmax sustainable QPS (%s): %.0f\n", label, maxSustainable)
}

func fatal(args ...any) {
	fmt.Fprintln(os.Stderr, args...)
	os.Exit(1)
}
