package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/netip"
	"path/filepath"
	"runtime"
	"text/tabwriter"
	"time"

	"censysmap/internal/cqrs"
	"censysmap/internal/discovery"
	"censysmap/internal/durable"
	"censysmap/internal/entity"
	"censysmap/internal/interro"
	"censysmap/internal/journal"
	"censysmap/internal/predict"
	"censysmap/internal/search"
	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
)

// isoOps caps how many operations each isolated measurement makes.
const isoOps = 4000

// unitCosts are the isolated per-operation costs the layer table multiplies
// counters by, in seconds.
type unitCosts struct {
	probe, discoveryTick, recommend       float64
	interroOK, interroFail                float64
	applyChange, applySame, drain, upsert float64
	hostCurrent                           float64
}

// timeOps runs fn n times between two runs of the reference kernel and
// returns speed-corrected seconds, allocations and allocated bytes per call.
func (r *runner) timeOps(n int, fn func(i int)) (sec, allocs, bytes float64) {
	if n == 0 {
		return 0, 0, 0
	}
	br := r.bracket()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := now().Sub(t0).Seconds()
	runtime.ReadMemStats(&b)
	k := float64(n)
	return d * br.close() / k, float64(b.Mallocs-a.Mallocs) / k, float64(b.TotalAlloc-a.TotalAlloc) / k
}

// isolate drives each layer's public API alone and times the calls. Writes
// go to a second universe built from the same seed and to fresh stores, so
// the measured map is only ever read. It fills the per-layer metrics that a
// pass cannot see from outside and returns the unit costs for the table.
func isolate(r *runner, L map[string]float64) (unitCosts, error) {
	var u unitCosts
	w, simNow := r.w, r.clk.Now()
	clk := simclock.New()
	net := simnet.New(w.universe(), clk)
	clk.Advance(simNow.Sub(clk.Now()))
	scanner := simnet.Scanner{ID: "bench-isolate", SourceIPs: r.cfg.SourceIPs, Country: "US", BlockedFrac: 0.02}
	rng := rand.New(rand.NewSource(int64(r.seed)))
	runtime.GC()

	// simnet: one background-class SYN probe to a random address and port.
	prefix := net.Config().Prefix.Masked()
	base, span := prefix.Addr().As4(), uint32(1)<<(32-prefix.Bits())
	baseVal := uint32(base[0])<<24 | uint32(base[1])<<16 | uint32(base[2])<<8 | uint32(base[3])
	probes := make([]netip.AddrPort, 50*isoOps)
	for i := range probes {
		v := baseVal + rng.Uint32()%span
		probes[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}),
			uint16(1+rng.Intn(65535)))
	}
	u.probe, _, _ = r.timeOps(len(probes), func(i int) { net.ProbeTCP(scanner, probes[i].Addr(), probes[i].Port()) })
	L["simnet.probe_ns"] = u.probe * 1e9

	// discovery: a stand-alone engine with the pipeline's scan classes.
	classes, err := discovery.StandardClasses(prefix, w.CloudBlocks, r.cfg.Tick, r.cfg.BackgroundPortsPerIPPerDay)
	if err != nil {
		return u, err
	}
	if w.Predictive { // core carves the predictive budget out of the background class
		for i := range classes {
			if classes[i].Name == "background65k" {
				classes[i].ProbesPerTick = max(classes[i].ProbesPerTick-r.cfg.PredictBudgetPerTick, 1)
			}
		}
	}
	ledger := discovery.NewLedger() // the pipeline accounts every probe in one
	for _, c := range classes {
		ledger.Register(c.Name, c.ProbesPerTick)
	}
	disc, err := discovery.New(discovery.Config{Scanner: scanner, PoPs: discovery.DefaultPoPs(),
		Classes: classes, Seed: universeSeed ^ 0xD15C, Ledger: ledger}, net)
	if err != nil {
		return u, err
	}
	discTick := func(int) {
		clk.Advance(r.cfg.Tick)
		disc.Tick(clk.Now(), func(discovery.Candidate) {})
	}
	for i := 0; i < ticksPerDay; i++ {
		discTick(i) // a first day untimed: the fresh universe's per-path tables are still growing
	}
	u.discoveryTick, _, _ = r.timeOps(ticksPerDay, discTick)
	L["discovery.tick_ms"] = u.discoveryTick * 1e3

	// interro: every live service once (success), then a closed port on the
	// same hosts (no contact).
	truth := net.LiveServices(clk.Now(), false)
	rng.Shuffle(len(truth), func(i, j int) { truth[i], truth[j] = truth[j], truth[i] })
	truth = truth[:min(len(truth), isoOps)]
	in := interro.New(net, scanner)
	pop := discovery.DefaultPoPs()[0].Name
	obs := make([]cqrs.Observation, len(truth))
	var allocs, bytes float64
	u.interroOK, allocs, bytes = r.timeOps(len(truth), func(i int) {
		s := truth[i]
		c := discovery.Candidate{Addr: s.Addr, Port: s.Port, Transport: s.Transport,
			Method: entity.DetectRefresh, PoP: pop, Time: clk.Now()}
		if s.Transport == entity.UDP {
			c.UDPProtocol = s.Protocol
		}
		obs[i] = in.Interrogate(c, clk.Now())
	})
	L["interro.interrogate_us"], L["interro.allocs_per_op"], L["interro.bytes_per_op"] = u.interroOK*1e6, allocs, bytes
	u.interroFail, _, _ = r.timeOps(len(truth), func(i int) {
		in.Interrogate(discovery.Candidate{Addr: truth[i].Addr, Port: 1, Transport: entity.TCP,
			Method: entity.DetectRefresh, PoP: pop, Time: clk.Now()}, clk.Now())
	})

	// cqrs + journal: apply those observations to a fresh processor (every
	// one a change), drain, then apply them again a day later (none a change).
	proc := cqrs.NewProcessor(cqrs.Config{EvictAfter: r.cfg.EvictAfter, SnapshotEvery: r.cfg.SnapshotEvery,
		Shards: r.cfg.Shards}, journal.NewPartitioned(r.cfg.Shards))
	events := 0
	proc.Subscribe(func(cqrs.OutEvent) { events++ })
	u.applyChange, _, _ = r.timeOps(len(obs), func(i int) { _ = proc.Apply(obs[i]) })
	u.drain, _, _ = r.timeOps(1, func(int) { proc.Drain() })
	u.drain = ratio(u.drain, float64(events))
	u.applySame, _, _ = r.timeOps(len(obs), func(i int) {
		o := obs[i]
		o.Time = o.Time.Add(24 * time.Hour)
		_ = proc.Apply(o)
	})
	L["cqrs.apply_change_us"], L["cqrs.apply_nochange_us"], L["cqrs.drain_us_per_event"] =
		u.applyChange*1e6, u.applySame*1e6, u.drain*1e6

	// search: the measured map's hosts into a fresh index; the second upsert
	// of each host replaces a document, which is the steady-state case.
	var hosts []*entity.Host
	for _, tg := range r.sched.Targets {
		if tg.Plain && len(hosts) < isoOps {
			if h, ok := r.m.HostCurrent(tg.Addr); ok {
				hosts = append(hosts, h)
			}
		}
	}
	// What the pipeline does per drained event before it can upsert: clone
	// the write side's current state and enrich it.
	u.hostCurrent, _, _ = r.timeOps(len(hosts), func(i int) { r.m.HostCurrent(hosts[i].IP) })
	ix := search.NewPartitioned(r.cfg.Shards)
	for _, h := range hosts {
		ix.Upsert(h)
	}
	u.upsert, _, _ = r.timeOps(len(hosts), func(i int) { ix.Upsert(hosts[i]) })
	L["search.upsert_us"] = u.upsert * 1e6
	pool := r.sched.Pool
	query := func(i int) { _, _ = ix.Search(pool[i%len(pool)].Text) }
	ix.SetQueryCache(false)
	cold, _, _ := r.timeOps(4*len(pool), query)
	ix.SetQueryCache(true)
	r.timeOps(len(pool), query)
	warm, _, _ := r.timeOps(16*len(pool), query)
	L["search.query_cold_us"], L["search.query_warm_us"] = cold*1e6, warm*1e6

	// lookup and serve: identical point reads through the raw lookup mux and
	// through the front end; the difference is auth, admission and ETag.
	var reads []*target
	for i := range r.sched.Targets {
		if r.sched.Targets[i].Plain && len(reads) < isoOps {
			reads = append(reads, &r.sched.Targets[i])
		}
	}
	rw := &respWriter{hdr: http.Header{}}
	through := func(h http.Handler) float64 {
		sec, _, _ := r.timeOps(len(reads), func(i int) {
			clear(rw.hdr)
			rw.buf.Reset()
			rw.code = 0
			h.ServeHTTP(rw, &http.Request{Method: http.MethodGet, URL: reads[i].URL, Host: "bench", Header: r.hdr})
		})
		return sec
	}
	direct := through(r.m.Lookup())
	L["lookup.host_us"] = direct * 1e6
	L["serve.overhead_us"] = (through(r.front) - direct) * 1e6
	past := simNow.Add(-24 * time.Hour)
	replay, _, _ := r.timeOps(len(reads), func(i int) { r.m.Host(reads[i].Addr, past) })
	L["journal.replay_us"] = replay * 1e6

	// durable: the checkpoint and the store write, separately.
	var cpTimes, saveTimes []float64
	dir := filepath.Join(r.dir, "isolate")
	for i := 0; i < 3; i++ {
		t0 := now()
		blob, err := json.Marshal(r.m.Checkpoint())
		t1 := now()
		if err != nil {
			return u, err
		}
		d := r.m.Durable()
		err = durable.Save(filepath.Join(dir, fmt.Sprint(i)), []durable.NamedStore{
			{Name: "journal", Store: d.Journal}, {Name: "webjournal", Store: d.WebJournal},
		}, blob, durable.SaveOptions{RecordsPerSegment: recordsPerSegment})
		if err != nil {
			return u, err
		}
		cpTimes, saveTimes = append(cpTimes, t1.Sub(t0).Seconds()), append(saveTimes, now().Sub(t1).Seconds())
	}
	L["core.checkpoint_ms"], L["durable.save_full_ms"] = median(cpTimes)*1e3, median(saveTimes)*1e3

	// predict: a stand-alone engine taught the measured dataset.
	eng := predict.New(predict.DefaultConfig())
	for _, s := range r.m.CurrentServices(false) {
		eng.Observe(s.Addr, s.Port, s.Transport)
	}
	at := simNow
	u.recommend, allocs, _ = r.timeOps(ticksPerDay, func(int) {
		at = at.Add(r.cfg.Tick)
		eng.Recommend(at, r.cfg.PredictBudgetPerTick)
	})
	L["predict.recommend_ms"], L["predict.allocs_per_call"] = u.recommend*1e3, allocs
	return u, nil
}

// layerRow is one line of the scan-phase attribution: how many times the
// pipeline called into a layer, what one call costs in isolation, and the
// product, next to the end-to-end time it has to add up to.
type layerRow struct {
	Layer   string
	Count   float64
	UnitUs  float64
	Seconds float64
	Note    string
}

// attribute builds the scan-phase table for a traced pass. Work the
// interrogation workers do in parallel is divided by the processors it can
// use; what the rows do not explain is reported as unattributed.
func attribute(r *runner, u unitCosts) (rows []layerRow, unattributedPct float64) {
	c, res := r.res.scan, &r.res
	par := float64(min(r.cfg.InterroWorkers, runtime.GOMAXPROCS(0)))
	ticks := float64(c.stats.Ticks)
	ok := float64(c.interro.Identified + c.interro.Unknown)
	events := float64(c.journal.Appends - c.journal.Snapshots)
	add := func(layer string, count, unit, divide float64, note string) {
		rows = append(rows, layerRow{layer, count, unit * 1e6, count * unit / divide, note})
	}
	add("discovery+simnet", ticks, u.discoveryTick, 1,
		fmt.Sprintf("%.0f probes x %.0f ns = %.2f s of it", float64(c.disc.ProbesSent), u.probe*1e9, float64(c.disc.ProbesSent)*u.probe))
	if r.w.Predictive {
		add("predict.recommend", ticks, u.recommend, 1, "")
		add("predict.probes", float64(c.stats.PredictiveProbes), u.probe, 1, "")
	}
	add("interro.ok", ok, u.interroOK, par, "on the workers")
	add("interro.nocontact", float64(c.interro.NoContact), u.interroFail, par, "on the workers")
	add("cqrs.apply_change", float64(c.obs-c.same), u.applyChange, par, "on the workers")
	add("cqrs.apply_nochange", float64(c.same), u.applySame, par, "on the workers")
	add("cqrs.drain", events, u.drain, 1, "")
	add("core.host_current", events, u.hostCurrent, 1, "clone + enrich, one per drained event")
	add("search.upsert", events, u.upsert, 1, "one per drained event")
	add("core.daily", float64(r.w.ScanDays), res.Layer["core.daily_tick_extra_ms"]/1e3, 1, "measured in the run, not isolated")
	add("runtime.gc", 1, res.gcCPUSec, float64(runtime.GOMAXPROCS(0)), "GC CPU over the phase")
	sum := 0.0
	for _, row := range rows {
		sum += row.Seconds
	}
	return rows, 100 * (res.scanSeconds - sum) / res.scanSeconds
}

func printLayerTable(out io.Writer, r *runner, rows []layerRow, unattributedPct float64, spans []spanTotal) {
	fmt.Fprintf(out, "\nscan phase of %s, seed %d: %.0f simulated days in %.2f s of ticks\n",
		r.w.Name, r.seed, float64(r.w.ScanDays), r.res.scanSeconds)
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer\tcount\tunit us\tseconds\tshare %\t note")
	sum := 0.0
	for _, row := range rows {
		sum += row.Seconds
		fmt.Fprintf(tw, "%s\t%.0f\t%.2f\t%.3f\t%.1f\t %s\n", row.Layer, row.Count, row.UnitUs, row.Seconds,
			100*row.Seconds/r.res.scanSeconds, row.Note)
	}
	fmt.Fprintf(tw, "sum\t\t\t%.3f\t%.1f\t of the core.tick span total\n", sum, 100*sum/r.res.scanSeconds)
	fmt.Fprintf(tw, "unattributed\t\t\t%.3f\t%.1f\t \n", r.res.scanSeconds-sum, unattributedPct)
	tw.Flush()

	fmt.Fprintln(out, "\nspans (whole traced pass)")
	tw = tabwriter.NewWriter(out, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "span\tcount\ttotal s\tself s\t")
	for _, st := range spans {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t\n", st.Name, st.Count, st.Total, st.Self)
	}
	tw.Flush()
}
