package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"censysmap/internal/core"
	"censysmap/internal/cqrs"
	"censysmap/internal/discovery"
	"censysmap/internal/durable"
	"censysmap/internal/entity"
	"censysmap/internal/interro"
	"censysmap/internal/journal"
	"censysmap/internal/serve"
	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
	"censysmap/internal/telemetry"
)

func now() time.Time { return simclock.Real{}.Now() }

const (
	benchKey          = "bench-internal-key"
	recordsPerSegment = 64
	minCoveragePct    = 35
)

// result is what one pass of a workload measured.
type result struct {
	E2E   map[string]float64 // the end-to-end metrics, speed-corrected where wall-clock
	Layer map[string]float64 // per-layer metrics this pass can see from outside, and raw.*

	Attempted int
	Failed    int
	Fails     []string // first few failure messages
	Wall      []string // "phase seconds", in order
	Sizes     []string // what was measured: services, hosts, store bytes
	Digest    string   // dataset digest after the scan phase

	// Inputs to the layer table (layers.go).
	scanSeconds float64 // Σ corrected tick wall time over the scan phase
	scan        counters
	gcCPUSec    float64
}

// counters is a point-in-time copy of every counter the system exports that
// the layer table multiplies by a unit cost.
type counters struct {
	stats     core.RunStats
	disc      discovery.Stats
	predict   discovery.ClassTotals
	interro   interro.Stats
	obs, same uint64
	journal   journal.Stats
	probes    uint64
}

func (r *runner) counters() counters {
	obs, same := r.m.WriteStats()
	return counters{
		stats: r.m.Stats(), disc: r.m.DiscoveryStats(),
		predict: r.m.Ledger().ClassTotals(discovery.ClassPredict),
		interro: r.m.InterroStats(), obs: obs, same: same,
		journal: r.m.JournalStats(), probes: r.net.ProbesSeen(),
	}
}

// runner carries one pass through the five phases.
type runner struct {
	w    workload
	seed uint64  // request schedule
	tr   *tracer // nil on the untraced pass
	ref  *refKernel
	dir  string // scratch directory for the stores this pass saves; the caller removes it

	*system  // the one the phases measure
	hdr      http.Header
	setups   [2][]float64 // seconds per set-up: raw, corrected
	heapBase uint64       // settled heap before the first set-up

	cursor  int       // next schedule entry to serve
	latency []float64 // seconds, by schedule position
	codes   map[int]int
	serve   []serveChunk
	refs    []float64 // every reference-kernel time of the pass

	res result
}

func (r *runner) fail(format string, args ...any) {
	r.res.Failed++
	if len(r.res.Fails) < 10 {
		r.res.Fails = append(r.res.Fails, fmt.Sprintf(format, args...))
	}
}

// bracket corrects one chunk of timed work at a time for the speed the
// machine ran at while it did it: the reference kernel runs before the first
// chunk and after every chunk, and a chunk's factor is REF_NOMINAL over the
// mean of the two kernel times around it. Slow-downs on a shared VM last
// about a second, so the correction has to be this local; one factor per
// phase left a same-seed spread of 8% on a metric where this leaves 2%.
type bracket struct {
	r    *runner
	prev float64
}

func (r *runner) bracket() *bracket {
	b := &bracket{r: r, prev: r.ref.run()}
	r.refs = append(r.refs, b.prev)
	return b
}

// close ends the current chunk and returns its correction factor.
func (b *bracket) close() float64 {
	next := b.r.ref.run()
	b.r.refs = append(b.r.refs, next)
	f := speedFactor([]float64{b.prev, next})
	b.prev = next
	return f
}

// runWorkload runs set-up, scan, serve, persist and verify once and returns
// the runner so a traced pass can hand its map to the layer table.
func runWorkload(w workload, seed uint64, tr *tracer, ref *refKernel, dir string) (*runner, error) {
	r := &runner{w: w, seed: seed, tr: tr, ref: ref, dir: dir, codes: map[int]int{},
		hdr: http.Header{"Authorization": {"Bearer " + benchKey}}}
	r.res.E2E = map[string]float64{}
	r.res.Layer = map[string]float64{}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	root := tr.open("run", -1, now())
	defer func() { tr.end(root, now()) }()
	// Whole wall seconds per phase, reference kernel and checks included:
	// what the run costs, not what it measures.
	t := now()
	lap := func(name string) {
		r.res.Wall = append(r.res.Wall, fmt.Sprintf("%s %.1f", name, now().Sub(t).Seconds()))
		t = now()
	}
	r.heapBase = settledHeap()
	var err error
	if r.system, err = r.setup(root); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.latency = make([]float64, r.w.Requests)
	lap("set-up")
	r.scan(root)
	r.measureDataset()
	lap("scan")
	r.serveStatic(root)
	r.serveMetrics()
	lap("serve")
	if err := r.persist(root); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	lap("persist")
	r.verify(root)
	lap("verify")
	if err := r.setupAgain(root); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	lap("set-up again")
	r.res.Layer["bench.ref_ms"] = median(r.refs) * 1e3
	return r, nil
}

// ---- phase 1: set-up ----

// system is what one set-up builds.
type system struct {
	clk   *simclock.Sim
	net   *simnet.Internet
	cfg   core.Config
	m     *core.Map
	front *serve.Server
	sched *schedule
}

// buildSystem is the set-up phase: the universe, the map, the warm-up days,
// the front end and the request schedule.
func buildSystem(w workload, seed uint64) (*system, error) {
	s := &system{clk: simclock.New(), cfg: w.pipeline()}
	s.net = simnet.New(w.universe(), s.clk)
	var err error
	if s.m, err = core.New(s.cfg, s.net); err != nil {
		return nil, err
	}
	s.m.Start() // runs the predictive seed scan when prediction is on
	s.clk.Advance(time.Duration(w.WarmDays) * 24 * time.Hour)

	s.front, err = s.m.Frontend(serve.Config{
		Tenants: []serve.Tenant{{Key: benchKey, Name: "bench", Tier: "internal"}},
	})
	if err != nil {
		return nil, err
	}
	var hosts []netip.Addr
	for _, svc := range s.m.CurrentServices(false) {
		if len(hosts) == 0 || hosts[len(hosts)-1] != svc.Addr {
			hosts = append(hosts, svc.Addr)
		}
	}
	pool := buildPool(vocabOf(s.net.LiveServices(s.clk.Now(), false)))
	s.sched, err = buildSchedule(seed, hosts, pool, w.Requests)
	return s, err
}

// setup times one set-up and returns what it built.
func (r *runner) setup(root int32) (*system, error) {
	runtime.GC()
	b := r.bracket()
	t0 := now()
	s, err := buildSystem(r.w, r.seed)
	t1 := now()
	r.tr.leaf("phase.setup", root, t0, t1)
	r.setups[0] = append(r.setups[0], t1.Sub(t0).Seconds())
	r.setups[1] = append(r.setups[1], t1.Sub(t0).Seconds()*b.close())
	return s, err
}

// setupAgain brings setup_s to the median of setupRepeats set-ups: one is
// one sample, and on a shared machine single samples differ by a fifth. The
// repeats run after everything else has been measured, because core never
// lets go of a universe it has seen (its enrichFeedCache is keyed by
// *simnet.Internet, the universe holds its clock and the clock its
// callbacks), and two dead maps in the heap would change how often the
// collector runs during the phases that measure the live one.
func (r *runner) setupAgain(root int32) error {
	for len(r.setups[0]) < setupRepeats {
		s, err := r.setup(root)
		if err != nil {
			return err
		}
		s.m.Stop()
	}
	r.res.Layer["raw.setup_s"], r.res.E2E["setup_s"] = median(r.setups[0]), median(r.setups[1])
	return nil
}

// ---- phase 2: scan (with the live serve batches, when the workload has them) ----

// scan advances the pipeline one tick at a time, ChunkDays simulated days per
// chunk.
func (r *runner) scan(root int32) {
	runtime.GC()
	days := r.w.ScanDays
	before := r.counters()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()

	sp := r.tr.open("phase.scan", root, now())
	ticks := make([]float64, 0, days*ticksPerDay)
	var dayRaw, dayFixed []float64
	var mallocs, allocBytes uint64
	var ta, tb runtime.MemStats
	b := r.bracket()
	perChunk := float64(r.w.ChunkDays)
	for d := 0; d < days; d += r.w.ChunkDays {
		chunk := r.tr.open("chunk.scan", sp, now())
		from, scanSec, serveSec := r.cursor, 0.0, 0.0
		for k := 0; k < r.w.ChunkDays*ticksPerDay; k++ {
			runtime.ReadMemStats(&ta)
			t0 := now()
			r.clk.Advance(time.Hour)
			t1 := now()
			runtime.ReadMemStats(&tb)
			r.tr.leaf("core.tick", chunk, t0, t1)
			mallocs += tb.Mallocs - ta.Mallocs
			allocBytes += tb.TotalAlloc - ta.TotalAlloc
			dt := t1.Sub(t0).Seconds()
			ticks = append(ticks, dt)
			scanSec += dt
			if r.w.BatchPerTick > 0 {
				serveSec += r.serveBatch(r.w.BatchPerTick, chunk)
			}
		}
		r.tr.end(chunk, now())
		f := b.close()
		dayRaw, dayFixed = append(dayRaw, scanSec), append(dayFixed, scanSec*f)
		if r.cursor > from {
			r.serve = append(r.serve, r.serveChunk(from, r.cursor, serveSec, f))
		}
	}
	r.tr.end(sp, now())
	runtime.ReadMemStats(&ms1)
	after := r.counters()

	r.res.E2E["simdays_per_s"] = perChunk / median(dayFixed)
	r.res.Layer["raw.simdays_per_s"] = perChunk / median(dayRaw)
	r.res.E2E["allocs_per_simday"] = float64(mallocs) / float64(days)
	r.res.E2E["alloc_mb_per_simday"] = float64(allocBytes) / float64(days) / (1 << 20)

	total, fixed := 0.0, 0.0
	for i := range dayRaw {
		total += dayRaw[i]
		fixed += dayFixed[i]
	}
	r.res.scanSeconds = fixed
	r.res.scan = diffCounters(before, after)
	r.res.gcCPUSec = (gcCPUSeconds() - gc0) * fixed / total

	// Layer metrics visible from outside the pipeline.
	L, fd := r.res.Layer, float64(days)
	asc := sorted(ticks)
	L["core.tick_p50_ms"] = percentile(asc, 50) * 1e3
	L["core.tick_p95_ms"] = percentile(asc, 95) * 1e3
	var daily []float64
	for i := ticksPerDay - 1; i < len(ticks); i += ticksPerDay {
		daily = append(daily, ticks[i]) // set-up ran whole days, so housekeeping lands on each day's last tick
	}
	L["core.daily_tick_extra_ms"] = (median(daily) - percentile(asc, 50)) * 1e3
	c := r.res.scan
	L["core.interrogations_per_simday"] = float64(c.stats.Interrogations) / fd
	L["core.pseudo_flagged_hosts"] = float64(r.m.PseudoHosts())
	L["simnet.probes_per_simday"] = float64(c.probes) / fd
	L["discovery.candidates_per_kprobe"] = ratio(1e3*float64(c.disc.OpenResponses), float64(c.disc.ProbesSent))
	L["predict.probes_per_simday"] = float64(c.stats.PredictiveProbes) / fd
	L["predict.hit_pct"] = ratio(100*float64(c.predict.Confirmed), float64(c.predict.Spent))
	L["interro.success_pct"] = ratio(100*float64(c.interro.Identified+c.interro.Unknown), float64(c.interro.Attempts))
	L["cqrs.nochange_pct"] = ratio(100*float64(c.same), float64(c.obs))
	L["journal.events_per_simday"] = float64(c.journal.Appends) / fd
	js := r.m.JournalStats()
	L["journal.bytes_per_event"] = ratio(float64(js.SSDBytes+js.HDDBytes), float64(js.SSDEvents+js.HDDEvents))
	L["runtime.gc_cycles_per_simday"] = float64(ms1.NumGC-ms0.NumGC) / fd
	L["runtime.gc_pause_ms_per_simday"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / fd
	L["runtime.gc_cpu_pct"] = ratio(100*r.res.gcCPUSec, fixed*float64(runtime.GOMAXPROCS(0)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func diffCounters(a, b counters) counters {
	d := b
	d.stats.Interrogations -= a.stats.Interrogations
	d.stats.PredictiveProbes -= a.stats.PredictiveProbes
	d.stats.Ticks -= a.stats.Ticks
	d.disc.ProbesSent -= a.disc.ProbesSent
	d.disc.OpenResponses -= a.disc.OpenResponses
	d.predict.Spent -= a.predict.Spent
	d.predict.Confirmed -= a.predict.Confirmed
	d.interro.Attempts -= a.interro.Attempts
	d.interro.NoContact -= a.interro.NoContact
	d.interro.Identified -= a.interro.Identified
	d.interro.Unknown -= a.interro.Unknown
	d.obs -= a.obs
	d.same -= a.same
	d.journal.Appends -= a.journal.Appends
	d.journal.Snapshots -= a.journal.Snapshots
	d.probes -= a.probes
	return d
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// ---- dataset metrics, taken between scan and serve ----

type slot struct {
	addr      netip.Addr
	port      uint16
	transport entity.Transport
}

func (r *runner) measureDataset() {
	svcs := r.m.CurrentServices(false)
	truth := r.net.LiveServices(r.clk.Now(), false)
	live := make(map[slot]bool, len(truth))
	for _, t := range truth {
		live[slot{t.Addr, t.Port, t.Transport}] = true
	}
	hit := 0
	for _, s := range svcs {
		if live[slot{s.Addr, s.Port, s.Transport}] {
			hit++
		}
	}
	r.res.E2E["coverage_pct"] = ratio(100*float64(hit), float64(len(truth)))
	r.res.E2E["accuracy_pct"] = ratio(100*float64(hit), float64(len(svcs)))
	r.res.Digest = datasetDigest(r.m)
	r.res.Sizes = append(r.res.Sizes, fmt.Sprintf("%d services of %d live in the universe", len(svcs), len(truth)))

	heap := settledHeap()
	r.res.E2E["heap_bytes_per_service"] = ratio(float64(heap-r.heapBase), float64(len(svcs)))
	r.res.Layer["runtime.heap_mb"] = float64(heap) / (1 << 20)
	r.res.Layer["search.postings_entries"] = float64(r.m.Index().PostingsEntries())
	r.res.Layer["snapshot.resident_days"] = float64(r.m.Analytics().Len())
}

// settledHeap is HeapAlloc after two collections: the second frees what the
// first one's finalizers and emptied pools let go of.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// datasetDigest hashes every service row of the dataset, pending ones too.
func datasetDigest(m *core.Map) string {
	h := sha256.New()
	for _, s := range m.CurrentServices(true) {
		fmt.Fprintf(h, "%s %d %s %s %t %t %s %d %t\n", s.Addr, s.Port, s.Transport, s.Protocol,
			s.Verified, s.TLS, s.Method, s.LastSeen.UnixNano(), s.Pending)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ---- phase 3: serve ----

// respWriter is the in-process stand-in for a connection: no sockets, one
// reusable buffer per client.
type respWriter struct {
	hdr  http.Header
	buf  bytes.Buffer
	code int
}

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) WriteHeader(c int) {
	if w.code == 0 {
		w.code = c
	}
}
func (w *respWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.buf.Write(b)
}

// sample is a lookup response kept for checking after the batch.
type sample struct {
	addr netip.Addr
	body []byte
}

type clientOut struct {
	codes   map[int]int
	samples []sample
	lookups int
}

// serveBatch drains the next n scheduled requests through the front end with
// serveClients closed-loop clients (each sends its next request when the
// previous reply is in) and returns the batch's wall time. The pipeline is
// idle meanwhile. Sampled lookup bodies are checked afterwards, off the clock.
func (r *runner) serveBatch(n int, parent int32) float64 {
	var next atomic.Int64
	next.Store(int64(r.cursor))
	end := int64(r.cursor + n)
	r.cursor += n
	outs := make([]clientOut, serveClients)
	var wg sync.WaitGroup
	t0 := now()
	for c := range outs {
		wg.Add(1)
		go func(out *clientOut) {
			defer wg.Done()
			out.codes = map[int]int{}
			rw := &respWriter{hdr: http.Header{}}
			for {
				i := next.Add(1) - 1
				if i >= end {
					return
				}
				tg := &r.sched.Targets[r.sched.Order[i]]
				req := &http.Request{Method: http.MethodGet, URL: tg.URL, Host: "bench",
					Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: r.hdr}
				clear(rw.hdr)
				rw.buf.Reset()
				rw.code = 0
				s := now()
				r.front.ServeHTTP(rw, req)
				e := now()
				r.latency[i] = e.Sub(s).Seconds()
				r.tr.leaf(spanNames[tg.Kind], parent, s, e)
				out.codes[rw.code]++
				if tg.Plain {
					if out.lookups++; out.lookups%100 == 0 {
						out.samples = append(out.samples, sample{tg.Addr, bytes.Clone(rw.buf.Bytes())})
					}
				}
			}
		}(&outs[c])
	}
	wg.Wait()
	wall := now().Sub(t0).Seconds()

	for _, out := range outs {
		for code, k := range out.codes {
			r.codes[code] += k
		}
		for _, s := range out.samples {
			r.checkLookup(s)
		}
	}
	return wall
}

var spanNames = [kindCount]string{"serve.lookup", "serve.search", "serve.export"}

// checkLookup compares a served host body with the write side's current
// state: same address, same service slots.
func (r *runner) checkLookup(s sample) {
	r.res.Attempted++
	var got entity.Host
	if err := json.Unmarshal(s.body, &got); err != nil {
		r.fail("lookup %s: body does not decode: %v", s.addr, err)
		return
	}
	want := map[string]*entity.Service{}
	if h, ok := r.m.HostCurrent(s.addr); ok {
		want = h.Services
	}
	same := got.IP == s.addr && len(got.Services) == len(want)
	for k := range want {
		if got.Services[k] == nil {
			same = false
		}
	}
	if !same {
		r.fail("lookup %s: served %d services for %s, current state has %d", s.addr, len(got.Services), got.IP, len(want))
	}
}

// serveChunk is what one chunk of serving measured: wall seconds per request
// and the median lookup and search latencies, raw, with the chunk's factor.
type serveChunk struct {
	perReq, lookup, search float64
	factor                 float64
}

func (r *runner) serveChunk(from, to int, wall, factor float64) serveChunk {
	var lat [kindCount][]float64
	for i := from; i < to; i++ {
		k := r.sched.Targets[r.sched.Order[i]].Kind
		lat[k] = append(lat[k], r.latency[i])
	}
	return serveChunk{wall / float64(to-from), median(lat[kindLookup]), median(lat[kindSearch]), factor}
}

// serveStatic serves whatever the scan phase left of the schedule against
// the now-static map, in serveChunks chunks.
func (r *runner) serveStatic(root int32) {
	rest := len(r.sched.Order) - r.cursor
	if rest <= 0 {
		return
	}
	runtime.GC()
	sp := r.tr.open("phase.serve", root, now())
	b := r.bracket()
	for c := 0; c < serveChunks; c++ {
		n := rest / serveChunks
		if c == serveChunks-1 {
			n = len(r.sched.Order) - r.cursor
		}
		chunk := r.tr.open("chunk.serve", sp, now())
		from := r.cursor
		wall := r.serveBatch(n, chunk)
		r.tr.end(chunk, now())
		r.serve = append(r.serve, r.serveChunk(from, r.cursor, wall, b.close()))
	}
	r.tr.end(sp, now())
}

// serveMetrics reports the median chunk: requests per second and the
// lookup and search medians, each chunk corrected by its own factor.
func (r *runner) serveMetrics() {
	var perReq, lookup, search [2][]float64 // raw, corrected
	for _, c := range r.serve {
		for i, f := range [2]float64{1, c.factor} {
			perReq[i] = append(perReq[i], c.perReq*f)
			lookup[i] = append(lookup[i], c.lookup*f)
			search[i] = append(search[i], c.search*f)
		}
	}
	E, L := r.res.E2E, r.res.Layer
	L["raw.serve_rps"], E["serve_rps"] = 1/median(perReq[0]), 1/median(perReq[1])
	L["raw.lookup_p50_us"], E["lookup_p50_us"] = median(lookup[0])*1e6, median(lookup[1])*1e6
	L["raw.search_p50_us"], E["search_p50_us"] = median(search[0])*1e6, median(search[1])*1e6

	var byKind [kindCount][]float64
	for i, id := range r.sched.Order[:r.cursor] {
		k := r.sched.Targets[id].Kind
		byKind[k] = append(byKind[k], r.latency[i])
	}
	for k := range byKind {
		byKind[k] = sorted(byKind[k])
	}
	us := func(kind int, p float64) float64 { return percentile(byKind[kind], p) * 1e6 }
	L["serve.export_page_p50_us"] = us(kindExport, 50)
	L["serve.lookup_p99_us"] = us(kindLookup, min(99, highestPercentile(len(byKind[kindLookup]))))
	L["serve.search_p99_us"] = us(kindSearch, min(99, highestPercentile(len(byKind[kindSearch]))))
	L["serve.shed_count"] = float64(r.codes[http.StatusServiceUnavailable])
	L["serve.ratelimited_count"] = float64(r.codes[http.StatusTooManyRequests])

	// Result-cache behaviour over everything served so far: the scan phase
	// itself runs no queries, so the index's counters are the serve phase's.
	cs := r.m.SearchCacheStats()
	L["search.cache_hit_pct"] = ratio(100*float64(cs.Hits), float64(cs.Hits+cs.Misses))

	r.res.Attempted += r.cursor
	for code, k := range r.codes {
		if code < 200 || code > 299 {
			r.res.Failed += k
			r.res.Fails = append(r.res.Fails, fmt.Sprintf("%d responses with status %d", k, code))
		}
	}
}

// ---- phase 4: persist ----

// recovered is a map rebuilt from disk plus what each step of that cost.
type recovered struct {
	m            *core.Map
	load, resume float64
}

// recover is the whole path from a directory to a map that answers reads:
// durable.Load, checkpoint decode, core.Resume. The engine-external stores
// (index, certificates, analytics) are handed over in memory, as the chaos
// harness does; the resumed map shares the live map's universe and clock, so
// it must not be started and must be dropped before the clock next moves.
func (r *runner) recover(dir string, parent int32) (recovered, error) {
	var out recovered
	t0 := now()
	res, err := durable.Load(dir, durable.LoadOptions{
		Rebuild: map[string]durable.SnapshotRebuilder{"journal": cqrs.RebuildSnapshotPayload},
	})
	t1 := now()
	if err != nil {
		return out, err
	}
	if !res.Report.Clean() {
		return out, fmt.Errorf("recovery of an undamaged store reported %d findings", len(res.Report.Findings))
	}
	var cp core.Checkpoint
	if err := json.Unmarshal(res.Checkpoint, &cp); err != nil {
		return out, err
	}
	t2 := now()
	d := r.m.Durable()
	d.Journal, d.WebJournal, d.Storage = res.Stores["journal"], res.Stores["webjournal"], res.Metrics
	cfg := r.cfg
	cfg.Telemetry = telemetry.New() // a registry takes one map's families
	m2, err := core.Resume(cfg, r.net, d, cp)
	t3 := now()
	if err != nil {
		return out, err
	}
	r.tr.leaf("durable.load", parent, t0, t1)
	r.tr.leaf("core.checkpoint_decode", parent, t1, t2)
	r.tr.leaf("core.resume", parent, t2, t3)
	return recovered{m2, t1.Sub(t0).Seconds(), t3.Sub(t2).Seconds()}, nil
}

// persist times recovery in chunks, and the two kinds of save beside it. A
// chunk is one full save into an empty directory and Recovers recoveries of
// it; the recoveries are timed one by one and summed, the sum is corrected by
// the reference kernel run on either side of it, and recover_ms is the median
// chunk's time per recovery. After every chunk the last recovered map must
// hold the live map's dataset. Then come as many incremental saves into a
// standing directory, one simulated tick apart. The first chunk and the first
// incremental save are not counted: they fill the page cache and grow the
// heap to the size the operation needs.
//
// Nothing is deleted before the last timed operation, and the incremental
// saves, which delete the partitions they rewrite, come last: on the declared
// machine writing the same 400 files cost between 9 and 190 ms of kernel time
// according to what the file system had been doing in the seconds before, and
// removing files was the surest way to the high end (README, "Findings").
func (r *runner) persist(root int32) error {
	sp := r.tr.open("phase.persist", root, now())
	defer func() { r.tr.end(sp, now()) }()
	opts := durable.SaveOptions{RecordsPerSegment: recordsPerSegment}

	var fullSave, rec, recRaw, load, resume []float64 // seconds per operation
	dir := ""
	b := r.bracket()
	for c := 0; c <= persistChunks; c++ {
		cyc := r.tr.open("chunk.persist", sp, now())
		dir = filepath.Join(r.dir, fmt.Sprintf("full-%d", c))
		runtime.GC()
		t0 := now()
		err := r.m.SaveDurable(dir, opts)
		t1 := now()
		if err != nil {
			return err
		}
		r.tr.leaf("core.save_full", cyc, t0, t1)
		saveFactor := b.close()

		runtime.GC()
		sec := 0.0
		var got recovered
		for i := 0; i < r.w.Recovers; i++ {
			t0 := now()
			got, err = r.recover(dir, cyc)
			if err != nil {
				return err
			}
			sec += now().Sub(t0).Seconds()
			if c > 0 {
				load, resume = append(load, got.load), append(resume, got.resume)
			}
		}
		if f := b.close(); c > 0 {
			fullSave = append(fullSave, t1.Sub(t0).Seconds()*saveFactor)
			recRaw = append(recRaw, sec/float64(r.w.Recovers))
			rec = append(rec, sec/float64(r.w.Recovers)*f)
		}
		r.res.Attempted += 1 + r.w.Recovers
		if d, want := datasetDigest(got.m), datasetDigest(r.m); d != want {
			r.fail("persist chunk %d: resumed dataset digest %s, live %s", c, d[:12], want[:12])
		}
		r.tr.end(cyc, now())
	}
	bytes, segments := dirSize(dir)
	services := len(r.m.CurrentServices(false))

	standing := filepath.Join(r.dir, "standing")
	opts.Incremental = true
	if err := r.m.SaveDurable(standing, opts); err != nil { // finds nothing to reuse
		return err
	}
	var incr, reused, written []float64
	runtime.GC()
	for c := 0; c <= persistChunks; c++ {
		t := now()
		r.clk.Advance(time.Hour)
		r.tr.leaf("core.tick", sp, t, now())
		before := fileTimes(standing)
		t0 := now()
		err := r.m.SaveDurable(standing, opts)
		t1 := now()
		if err != nil {
			return err
		}
		r.tr.leaf("core.save_incr", sp, t0, t1)
		r.res.Attempted++
		if c > 0 {
			incr = append(incr, t1.Sub(t0).Seconds())
			re, wr := rewritten(before, fileTimes(standing), standing)
			reused, written = append(reused, re), append(written, wr)
		}
	}
	incrFactor := b.close()

	E, L := r.res.E2E, r.res.Layer
	L["raw.recover_ms"], E["recover_ms"] = median(recRaw)*1e3, median(rec)*1e3
	L["core.save_full_ms"] = median(fullSave) * 1e3
	L["core.save_incr_ms"] = median(incr) * incrFactor * 1e3
	L["durable.load_ms"] = median(load) * 1e3
	L["core.resume_ms"] = median(resume) * 1e3
	L["durable.reused_partitions_pct"] = median(reused)
	L["durable.bytes_written_incr"] = median(written)
	E["store_bytes_per_service"] = ratio(float64(bytes), float64(services))
	r.res.Sizes = append(r.res.Sizes, fmt.Sprintf("a full save is %.1f MB in %d segment files", float64(bytes)/(1<<20), segments))
	L["durable.segments"] = float64(segments)

	// The standing directory is the product of the incremental saves only;
	// it must recover to the live map's dataset as well.
	r.res.Attempted++
	got, err := r.recover(standing, sp)
	if err != nil {
		r.fail("standing (incremental) store does not recover: %v", err)
	} else if d, want := datasetDigest(got.m), datasetDigest(r.m); d != want {
		r.fail("standing (incremental) store: resumed dataset digest %s, live %s", d[:12], want[:12])
	}
	return nil
}

// fileTimes maps every file under dir to its size and modification time.
func fileTimes(dir string) map[string][2]int64 {
	out := map[string][2]int64{}
	_ = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				out[p] = [2]int64{info.Size(), info.ModTime().UnixNano()}
			}
		}
		return nil
	})
	return out
}

// rewritten compares a store directory before and after an incremental save:
// the share of journal partitions none of whose files were touched, and the
// bytes of the files that were.
func rewritten(before, after map[string][2]int64, dir string) (reusedPct, bytes float64) {
	parts, dirty := map[string]bool{}, map[string]bool{}
	prefix := filepath.Join(dir, "stores", "journal") + string(filepath.Separator)
	for p, a := range after {
		changed := before[p] != a
		if changed {
			bytes += float64(a[0])
		}
		if rest, ok := strings.CutPrefix(p, prefix); ok {
			part, _, _ := strings.Cut(rest, string(filepath.Separator))
			parts[part] = true
			if changed {
				dirty[part] = true
			}
		}
	}
	return ratio(100*float64(len(parts)-len(dirty)), float64(len(parts))), bytes
}

func dirSize(dir string) (bytes int64, segments int) {
	for p, st := range fileTimes(dir) {
		bytes += st[0]
		if strings.HasSuffix(p, ".seg") {
			segments++
		}
	}
	return bytes, segments
}

// ---- phase 5: verify ----

func (r *runner) verify(root int32) {
	t0 := now()
	// Every pool query's count, against a brute-force count over the dataset.
	var hosts []*entity.Host
	var last netip.Addr
	for _, s := range r.m.CurrentServices(true) {
		if s.Addr != last {
			last = s.Addr
			if h, ok := r.m.HostCurrent(s.Addr); ok {
				hosts = append(hosts, h)
			}
		}
	}
	for _, q := range r.sched.Pool {
		r.res.Attempted++
		got, err := r.m.Count(q.Text)
		if err != nil {
			r.fail("count %q: %v", q.Text, err)
			continue
		}
		want := 0
		for _, h := range hosts {
			if q.match(h) {
				want++
			}
		}
		if got != want {
			r.fail("count %q: index says %d, brute force over %d hosts says %d", q.Text, got, len(hosts), want)
		}
	}
	// A collapsed map must not post a throughput.
	r.res.Attempted += 2
	if c := r.res.E2E["coverage_pct"]; c < minCoveragePct {
		r.fail("coverage %.1f%% is below %d%%: the map has collapsed", c, minCoveragePct)
	}
	if n := r.m.PseudoHosts(); n != 0 {
		r.fail("%d hosts flagged pseudo in a universe without pseudo-hosts", n)
	}
	r.tr.leaf("phase.verify", root, t0, now())
}
