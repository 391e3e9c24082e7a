// Package core assembles the complete map pipeline — the paper's system as a
// whole. A Map wires together:
//
//	discovery (Phase 1)  -> interrogation (Phase 2) -> CQRS write side
//	     |                        ^                        |
//	     v                        |                        v
//	predictive engine ------------+            journal + snapshots
//	  + re-injection                                       |
//	                                                       v
//	refresh & eviction  <---- current state ----> read side + enrichment
//	                                                       |
//	web properties (CT/redirect/pDNS)            search index, lookup API,
//	                                             cert->host pivot
//
// Run drives everything off a simulated clock at a fixed tick, so months of
// continuous operation execute in seconds and experiments are reproducible.
//
// The hot path is sharded (see DESIGN.md, "Concurrency model"): each tick's
// candidates are batched into per-shard FIFO queues keyed by a stable hash
// of the address, a pool of InterroWorkers goroutines drains the shards
// (worker i owns shards j where j % workers == i, so per-shard order is
// enqueue order for any worker count), and results are applied shard-locally.
// Everything order-sensitive that crosses shards — redirect observations,
// event dispatch, refresh scheduling — is collected and flushed serially in
// canonical order, which keeps runs bit-for-bit reproducible regardless of
// goroutine scheduling or worker count.
package core

import (
	"fmt"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"censysmap/internal/cqrs"
	"censysmap/internal/discovery"
	"censysmap/internal/draw"
	"censysmap/internal/durable"
	"censysmap/internal/enrich"
	"censysmap/internal/entity"
	"censysmap/internal/interro"
	"censysmap/internal/journal"
	"censysmap/internal/lookup"
	"censysmap/internal/predict"
	"censysmap/internal/search"
	"censysmap/internal/shard"
	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
	"censysmap/internal/snapshot"
	"censysmap/internal/telemetry"
	"censysmap/internal/webprop"
)

// Config assembles a Map.
type Config struct {
	// SourceIPs is the source pool size (blocking model input).
	SourceIPs int
	// Tick is the scheduling quantum.
	Tick time.Duration
	// BackgroundPortsPerIPPerDay budgets the 65K background class.
	BackgroundPortsPerIPPerDay int
	// PredictBudgetPerTick bounds predictive probes per tick.
	PredictBudgetPerTick int
	// SeedScanFraction is the fraction of addresses given a one-time
	// all-65K-port seed scan when the map starts — the GPS-style training
	// sample the predictive models learn deployment patterns from.
	SeedScanFraction float64
	// CloudBlocks passes the universe's cloud region to the cloud class.
	CloudBlocks int
	// PseudoServiceThreshold flags hosts with more found services than
	// this as pseudo-hosts and stops interrogating them.
	PseudoServiceThreshold int
	// Excluded prefixes are never scanned (opt-out list).
	Excluded []netip.Prefix
	// DisablePrediction turns the predictive engine off (ablation).
	DisablePrediction bool
	// EvictAfter overrides the 72h eviction grace window (ablation).
	EvictAfter time.Duration
	// SnapshotEvery overrides journal snapshot cadence (ablation).
	SnapshotEvery int
	// Shards is the number of write-path shards: pipeline bookkeeping maps,
	// the CQRS processor, its journal, and the search index all partition by
	// the same stable hash of the address. <= 0 means 1 (the serial layout).
	Shards int
	// InterroWorkers is the size of the per-tick interrogation worker pool.
	// <= 1 runs the batch on the calling goroutine. Results are identical
	// for any worker count; see DESIGN.md.
	InterroWorkers int
	// InterroBudget bounds the virtual time one interrogation candidate may
	// consume (tarpit defense; see internal/interro/budget.go). The zero
	// value keeps unlimited legacy behavior modulo the hard read cap.
	InterroBudget interro.Budget
	// ScanBackoff configures discovery's adaptive per-/24 backoff and scanner
	// rotation against networks running scan detection. Zero value disables.
	ScanBackoff discovery.BackoffPolicy
	// HoneypotUniformityThreshold flags honeypot farms: when this many
	// distinct hosts in one /24 present a verified ICS service with an
	// identical fingerprint on the same port, the whole group is flagged and
	// suppressed from the dataset. <= 0 disables detection.
	HoneypotUniformityThreshold int
	// Telemetry, when non-nil, receives every pipeline metric family and
	// enables trace-span sampling. Nil disables instrumentation entirely;
	// the instrument sites reduce to nil-pointer checks.
	Telemetry *telemetry.Registry
	// TraceSample traces one in N addresses through the pipeline. 0 means
	// the default (1/64); negative disables tracing while keeping metrics.
	TraceSample int
}

// scannerID identifies the engine to networks and their scan detectors.
const scannerID = "censysmap"

// refreshEvery is the per-service re-interrogation cadence (daily, §4.6).
const refreshEvery = 24 * time.Hour

// DefaultConfig returns the production-like configuration.
func DefaultConfig() Config {
	return Config{
		SourceIPs:                  256,
		Tick:                       time.Hour,
		BackgroundPortsPerIPPerDay: 100,
		PredictBudgetPerTick:       400,
		SeedScanFraction:           0.02,
		CloudBlocks:                24,
		PseudoServiceThreshold:     48,
		EvictAfter:                 72 * time.Hour,
		SnapshotEvery:              16,
		Shards:                     8,
		InterroWorkers:             4,
	}
}

// ArmCountermeasures fills the adversarial defenses c leaves at zero with
// the shipped preset: interrogation deadline budgets (8 s per connection,
// 30 s per candidate), adaptive per-/24 backoff (a 24-drop streak backs a /24
// off, every six backoffs rotate the scanner identity), and honeypot-farm
// flagging at 8 uniform hosts. A defense c already sets is kept.
func (c *Config) ArmCountermeasures() {
	if !c.InterroBudget.Enabled() {
		c.InterroBudget = interro.Budget{Handshake: 8 * time.Second, Total: 30 * time.Second}
	}
	if !c.ScanBackoff.Enabled() {
		c.ScanBackoff = discovery.BackoffPolicy{StreakThreshold: 24, RotateAfter: 6}
	}
	if c.HoneypotUniformityThreshold == 0 {
		c.HoneypotUniformityThreshold = 8
	}
}

// slotKey identifies one service slot globally.
type slotKey struct {
	addr      netip.Addr
	port      uint16
	transport entity.Transport
}

// slotOf names the slot a candidate addresses.
func slotOf(c discovery.Candidate) slotKey { return slotKey{c.Addr, c.Port, c.Transport} }

// lessSlot is the canonical (addr, port, transport) slot order.
func lessSlot(a, b slotKey) bool {
	if a.addr != b.addr {
		return a.addr.Less(b.addr)
	}
	if a.port != b.port {
		return a.port < b.port
	}
	return a.transport < b.transport
}

// flagReason says which host-level filter flagged a host.
type flagReason string

const (
	flagPseudo   flagReason = "pseudo"   // more found services than PseudoServiceThreshold
	flagHoneypot flagReason = "honeypot" // member of a uniform honeypot farm
)

// taskKind selects the per-candidate processing semantics.
type taskKind int

const (
	// taskCandidate is a Phase-1/predictive candidate: dedup against the
	// slot's freshness in the dataset, then interrogate once from its PoP.
	taskCandidate taskKind = iota
	// taskRefresh re-interrogates a dataset slot with the PoP retry ladder,
	// skipping slots that left the dataset earlier in the batch.
	taskRefresh
	// taskDirect interrogates without a dataset check (re-injection).
	taskDirect
)

type pendingTask struct {
	cand discovery.Candidate
	kind taskKind
	// id is cand.Addr's entity ID. enqueue renders it once, to pick the
	// shard, and every write-side lookup the task makes reuses it.
	id string
}

// stateShard holds the pipeline bookkeeping for one slice of the address
// space. During a batch only the owning worker touches a shard's maps; the
// mutex makes the read-side API safe to call concurrently with a run.
type stateShard struct {
	mu sync.Mutex
	// flagged holds the hosts a host-level filter (pseudo-service, honeypot
	// farm) took out of the dataset. It is a write gate only (processTask):
	// flagging retires the host's services through the journal, so no read
	// path consults it.
	flagged map[netip.Addr]flagReason
	// foundPerHost counts found services, for pseudo detection.
	foundPerHost map[netip.Addr]int

	// pending is the shard's FIFO task queue for the current batch, filled
	// serially between batches. Its backing array outlives the batch: only
	// enqueue (serial) and the owning worker (drainShard) touch it, and
	// runBatch's wg.Wait separates the two.
	pending []pendingTask
	// redirects buffers http.location values seen by this shard's worker;
	// they are flushed to the web-property pipeline serially after the
	// batch, in shard order, so its scan queue stays deterministic.
	redirects []string
	// fpObs buffers verified-ICS fingerprint observations for the honeypot
	// uniformity detector; merged serially after the batch, in shard order
	// (see mergeFarmObservations), so flagging is layout-invariant.
	fpObs []fpObservation
}

// Map is the running system.
type Map struct {
	cfg   Config
	net   *simnet.Internet
	clock *simclock.Sim
	// scanner is the identity every probe the Map sends carries (per-PoP
	// interrogators override only its Country).
	scanner simnet.Scanner

	disc      *discovery.Engine
	ledger    *discovery.Ledger
	inter     map[string]*interro.Interrogator // per PoP
	pops      []discovery.PoP
	processor *cqrs.Processor
	reader    *cqrs.Reader
	enricher  *enrich.Enricher
	index     *search.Index
	lookupSvc *lookup.Service
	predictor *predict.Engine
	webProps  *webprop.Pipeline
	analytics *snapshot.Store

	// Ledger handles of the two classes core itself spends.
	classSeed    discovery.Class
	classPredict discovery.Class

	shards []*stateShard
	// phases are the fill-then-drain stanzas Tick runs, in order.
	phases []tickPhase

	// due is refreshDue's scratch list, kept across ticks and empty between
	// them.
	due []discovery.Candidate

	// exclusions are active operator opt-outs (Appendix D).
	exclusions []Exclusion

	lastDaily time.Time
	stopTick  func()
	// seeded records that the one-time seed scan ran, so a resumed Map does
	// not repeat it.
	seeded bool

	// Pipeline counters, atomic because interrogation workers bump them
	// concurrently.
	ticks            atomic.Uint64
	interrogations   atomic.Uint64
	refreshScans     atomic.Uint64
	reinjected       atomic.Uint64
	pseudoFiltered   atomic.Uint64
	honeypotsFlagged atomic.Uint64

	// farmSeen accumulates the honeypot uniformity evidence: distinct hosts
	// per (net24, port, fingerprint). Touched only serially (post-batch
	// fan-in and checkpoint/restore).
	farmSeen map[farmKey]map[netip.Addr]bool

	// Degraded-mode state: quarParts marks journal partitions the storage
	// engine could not recover (indices modulo the journal's partition
	// count). Writes for their address slice are fenced and their read
	// models purged; the map is nil on a healthy Map.
	quarParts map[int]bool
	// storageMetrics are the storage engine's recovery counters
	// (censys_storage_*), zero-valued on a fresh Map so the metric family
	// is present — and provably zero — on healthy runs.
	storageMetrics *durable.Metrics

	// tel/tracer are the optional telemetry hookups (see telemetry.go);
	// both are nil when Config.Telemetry is nil.
	tel    *coreTel
	tracer *telemetry.Tracer
}

// RunStats counts pipeline activity.
type RunStats struct {
	Ticks            uint64
	Interrogations   uint64
	RefreshScans     uint64
	PredictiveProbes uint64 // the ledger's predict-class spend
	Reinjected       uint64
	PseudoFiltered   uint64
	HoneypotsFlagged uint64
}

// New builds a Map over a shared synthetic Internet. The Internet's clock
// must be a *simclock.Sim (the Map schedules its own ticks on it).
func New(cfg Config, net *simnet.Internet) (*Map, error) {
	return build(cfg, net, nil, nil)
}

// build assembles a Map, either fresh (d and cp nil) or resumed from durable
// stores plus a checkpoint (see Resume in checkpoint.go).
func build(cfg Config, net *simnet.Internet, d *Durable, cp *Checkpoint) (*Map, error) {
	clk, ok := net.Clock().(*simclock.Sim)
	if !ok {
		return nil, fmt.Errorf("core: simnet must run on a simulated clock")
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Hour
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.InterroWorkers < 1 {
		cfg.InterroWorkers = 1
	}

	m := &Map{
		cfg:    cfg,
		net:    net,
		clock:  clk,
		shards: make([]*stateShard, cfg.Shards),
	}
	for i := range m.shards {
		m.shards[i] = &stateShard{
			flagged:      make(map[netip.Addr]flagReason),
			foundPerHost: make(map[netip.Addr]int),
		}
	}
	if cfg.HoneypotUniformityThreshold > 0 {
		m.farmSeen = make(map[farmKey]map[netip.Addr]bool)
	}

	// A small fraction of networks blocklist even polite scanners (the
	// paper's opt-out list covers 0.03% of address space; broader
	// defensive blocking is somewhat higher).
	m.scanner = simnet.Scanner{ID: scannerID, SourceIPs: cfg.SourceIPs,
		Country: "US", BlockedFrac: 0.02}

	// Discovery: the three standard classes over the universe prefix.
	classes, err := discovery.StandardClasses(net.Config().Prefix, cfg.CloudBlocks,
		cfg.Tick, cfg.BackgroundPortsPerIPPerDay)
	if err != nil {
		return nil, err
	}
	// Probe-budget ledger: the predictive engine's per-tick allocation is
	// carved out of the background 65K class, so a prediction-on run keeps
	// (about) the per-tick probe footprint of a prediction-off one —
	// predictions displace exhaustive background probes and have to beat
	// them on services found per probe, not ride on extra bandwidth.
	if !cfg.DisablePrediction && cfg.PredictBudgetPerTick > 0 {
		for i := range classes {
			if classes[i].Name != "background65k" {
				continue
			}
			carve := cfg.PredictBudgetPerTick
			if most := classes[i].ProbesPerTick - 1; carve > most {
				carve = most // tiny universes keep at least one background probe
			}
			if carve > 0 {
				classes[i].ProbesPerTick -= carve
			}
		}
	}
	m.ledger = discovery.NewLedger()
	for _, cc := range classes {
		m.ledger.Register(cc.Name, cc.ProbesPerTick)
	}
	m.classSeed = m.ledger.Register(discovery.ClassSeed, 0)
	predictAlloc := 0
	if !cfg.DisablePrediction {
		predictAlloc = cfg.PredictBudgetPerTick
	}
	m.classPredict = m.ledger.Register(discovery.ClassPredict, predictAlloc)

	m.pops = discovery.DefaultPoPs()
	m.disc, err = discovery.New(discovery.Config{
		Scanner:  m.scanner,
		PoPs:     m.pops,
		Classes:  classes,
		Excluded: cfg.Excluded,
		Seed:     net.Config().Seed ^ 0xD15C,
		Ledger:   m.ledger,
		Backoff:  cfg.ScanBackoff,
	}, net)
	if err != nil {
		return nil, err
	}

	// One interrogator per PoP so retries genuinely change vantage point.
	// Interrogators are shared by all workers; their counters are atomic.
	m.inter = make(map[string]*interro.Interrogator, len(m.pops))
	for _, pop := range m.pops {
		sc := m.scanner
		sc.Country = pop.Country
		in := interro.New(net, sc)
		in.Budget = cfg.InterroBudget
		m.inter[pop.Name] = in
	}

	// Storage pipeline: journal, processor, and index all partition by the
	// same shard hash, so one address's rows, events, and postings live on
	// aligned shards. On resume, the durable stores are carried over and the
	// processor's materialized state is rebuilt from the journal.
	pcfg := cqrs.Config{EvictAfter: cfg.EvictAfter, SnapshotEvery: cfg.SnapshotEvery,
		Shards: cfg.Shards}
	var j *journal.Store
	if d != nil {
		j = d.Journal
		if len(d.Quarantined) > 0 {
			// Quarantine indices live in the on-disk journal's partition
			// space, which survives layout-changing resumes unchanged.
			m.quarParts = make(map[int]bool, len(d.Quarantined))
			for _, p := range d.Quarantined {
				if p < 0 || p >= j.Partitions() {
					return nil, fmt.Errorf("core: resume: quarantined partition %d outside journal's %d partitions", p, j.Partitions())
				}
				m.quarParts[p] = true
			}
		}
		m.processor, err = cqrs.RebuildProcessor(pcfg, j, cp.TakenAt)
		if err != nil {
			return nil, fmt.Errorf("core: resume: rebuild processor from journal: %w", err)
		}
		// Liveness entries of quarantined entities find no rebuilt record to
		// patch, and later checkpoints list only what is materialized.
		m.processor.RestoreEphemeral(cp.Processor)
	} else {
		j = journal.NewPartitioned(cfg.Shards)
		m.processor = cqrs.NewProcessor(pcfg, j)
	}
	if d != nil && d.Storage != nil {
		m.storageMetrics = d.Storage
	} else {
		m.storageMetrics = durable.NewMetrics()
	}
	geo, asn := enrichFeedsFor(net)
	m.enricher = enrich.New(geo, asn)
	m.reader = cqrs.NewReader(j, m.enricher)
	m.analytics = snapshot.NewStore(m.rowsAt)
	if d != nil {
		m.index = d.Index
	} else {
		m.index = search.NewPartitioned(cfg.Shards)
	}
	if m.quarParts != nil {
		// Purge the carried index of quarantined entities: it stripes by the
		// same hash over the same partition count as the journal, so the
		// purge is a whole-partition drop.
		if m.index.Partitions() != j.Partitions() {
			return nil, fmt.Errorf("core: resume: index has %d partitions, journal %d; cannot align quarantine",
				m.index.Partitions(), j.Partitions())
		}
		for _, p := range m.QuarantinedPartitions() {
			m.index.DropPartition(p)
		}
	}
	m.processor.Subscribe(m.consumeEvent)
	m.lookupSvc = lookup.New(m.reader, clk)
	m.lookupSvc.AttachSearch(m.index)
	if m.quarParts != nil {
		m.lookupSvc.SetDegraded(m.QuarantinedPartitions(), j.Partitions())
	}

	// Prediction & re-injection. The predictor's topology shares the
	// engine's exclusion set so pruned subtrees never emit targets.
	m.predictor = predict.New(predict.DefaultConfig())
	m.syncExclusions()
	m.phases = []tickPhase{
		{"discovery", true, m.discover},
		// Re-interrogate dataset services on cadence (paper §4.6).
		{"refresh", true, m.refreshDue},
		{"predict", !cfg.DisablePrediction, m.runPrediction},
		{"reinject", true, m.runReinjection},
	}

	// Web properties.
	if d != nil {
		m.webProps = webprop.NewWithJournal(net, m.scanner, d.WebJournal)
	} else {
		m.webProps = webprop.New(net, m.scanner)
	}

	m.lastDaily = clk.Now()
	if cp != nil {
		if err := m.restore(cp); err != nil {
			return nil, fmt.Errorf("core: resume: apply checkpoint taken at %s: %w",
				cp.TakenAt.Format(time.RFC3339), err)
		}
	}

	// Telemetry last: every component the bridges read now exists.
	m.attachTelemetry()
	m.processor.AttachTelemetry(cfg.Telemetry)
	m.lookupSvc.AttachMetrics(cfg.Telemetry, m.tracer)
	return m, nil
}

func (m *Map) shardFor(addr netip.Addr) *stateShard {
	return m.shards[shard.Of(addr.String(), len(m.shards))]
}

// enrichFeeds caches the derived GeoIP/ASN feeds per universe: five engines
// sharing one Internet each used to rebuild both feeds with a full
// O(universe) address scan, and a resumed Map reuses its universe's. The
// feeds are read-only after construction, so one build per universe is
// shared by every Map. The host count is part of the key so a universe
// mutated by AddHost/RemoveHost gets fresh feeds. The key holds the universe
// weakly, and a cleanup drops the entry once the universe is collected, so a
// process that builds many universes keeps feeds only for the live ones.
type enrichFeedKey struct {
	net   weak.Pointer[simnet.Internet]
	hosts int
}

type enrichFeeds struct {
	geo *enrich.GeoDB
	asn *enrich.ASNDB
}

var (
	enrichFeedMu    sync.Mutex
	enrichFeedCache = make(map[enrichFeedKey]enrichFeeds)
)

func enrichFeedsFor(net *simnet.Internet) (*enrich.GeoDB, *enrich.ASNDB) {
	key := enrichFeedKey{net: weak.Make(net), hosts: net.Hosts()}
	enrichFeedMu.Lock()
	defer enrichFeedMu.Unlock()
	if f, ok := enrichFeedCache[key]; ok {
		return f.geo, f.asn
	}
	f := enrichFeeds{geo: buildGeoDB(net), asn: buildASNDB(net)}
	enrichFeedCache[key] = f
	runtime.AddCleanup(net, func(key enrichFeedKey) {
		enrichFeedMu.Lock()
		delete(enrichFeedCache, key)
		enrichFeedMu.Unlock()
	}, key)
	return f.geo, f.asn
}

// buildGeoDB assembles the "external" GeoIP feed: per-/24 country data
// matching the universe (a perfect-accuracy commercial feed).
func buildGeoDB(net *simnet.Internet) *enrich.GeoDB {
	g := enrich.NewGeoDB()
	seen := map[netip.Addr]bool{}
	for _, a := range net.Addrs() {
		base := draw.Net24(a)
		if seen[base] {
			continue
		}
		seen[base] = true
		h := net.HostAt(a)
		g.Add(netip.PrefixFrom(base, 24), h.Country, "")
	}
	return g
}

// buildASNDB assembles the WHOIS/route feed from the universe's /20 blocks.
func buildASNDB(net *simnet.Internet) *enrich.ASNDB {
	db := enrich.NewASNDB()
	seen := map[netip.Addr]bool{}
	for _, a := range net.Addrs() {
		b := a.As4()
		b[2] &= 0xF0
		b[3] = 0
		base := netip.AddrFrom4(b)
		if seen[base] {
			continue
		}
		seen[base] = true
		h := net.HostAt(a)
		db.Add(netip.PrefixFrom(base, 20), h.ASN, fmt.Sprintf("AS%d", h.ASN), h.ASOrg)
	}
	return db
}

// Start schedules the Map's tick on the simulated clock. Advance the clock
// (or call Run) to make progress.
func (m *Map) Start() {
	if m.stopTick != nil {
		return
	}
	if !m.seeded {
		m.seedScan()
		m.seeded = true
	}
	m.stopTick = m.clock.Every(m.cfg.Tick, m.Tick)
}

// seedScan gives a deterministic sample of addresses a one-time full-port
// scan. Its results both enter the dataset and train the predictive models
// (GPS trains on exactly such a sub-sampled all-port seed scan).
func (m *Map) seedScan() {
	if m.cfg.SeedScanFraction <= 0 || m.cfg.DisablePrediction {
		return
	}
	now := m.clock.Now()
	prefix := m.net.Config().Prefix.Masked()
	count := uint64(1) << (32 - prefix.Bits())
	baseVal := uint64(draw.AddrU32(prefix.Addr()))
	for off := uint64(0); off < count; off++ {
		// Deterministic sampling keyed on the address. The multiply alone
		// leaves an arithmetic lattice mod 2^16 that aliases against the
		// 256-aligned /24 structure, so finish with a full avalanche
		// (splitmix64) before thresholding.
		h := off*0x9E3779B97F4A7C15 + m.net.Config().Seed
		h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
		h = (h ^ (h >> 27)) * 0x94D049BB133111EB
		h ^= h >> 31
		if draw.Frac(h) >= m.cfg.SeedScanFraction {
			continue
		}
		addr := draw.U32Addr(uint32(baseVal + off))
		if m.excludedAddr(addr) {
			continue
		}
		// The sample is fully scanned, so its port pairs carry uncensored
		// co-occurrence evidence — mark before the observations stream in.
		m.predictor.ObserveFull(addr)
		open := 0
		for port := 1; port <= 65535; port++ {
			if m.net.ProbeTCP(m.scanner, addr, uint16(port)) != simnet.Open {
				continue
			}
			open++
			c := discovery.Candidate{Addr: addr, Port: uint16(port),
				Transport: entity.TCP, Method: entity.DetectBackgroundScan,
				PoP: m.pops[0].Name, Time: now}
			m.enqueue(pendingTask{cand: c, kind: taskCandidate})
		}
		m.ledger.Account(m.classSeed, 65535, open)
		// Batch per address: pseudo-host detection must engage before the
		// next address's candidates are processed, exactly as inline
		// handling did.
		m.runBatch(now, "seed")
	}
	m.processor.Drain()
}

// Stop cancels the scheduled ticks.
func (m *Map) Stop() {
	if m.stopTick != nil {
		m.stopTick()
		m.stopTick = nil
	}
}

// tickPhase is one fill-then-drain stanza of a tick: fill enqueues the
// phase's tasks into the per-shard FIFO queues, then the batch runs through
// the worker pool under the phase's name.
type tickPhase struct {
	name    string
	enabled bool
	fill    func(now time.Time)
}

// Tick executes one scheduling quantum. Phases are barriers, so within a
// tick every phase observes the full effects of the previous one, exactly
// as the serial pipeline did.
func (m *Map) Tick(now time.Time) {
	m.ticks.Add(1)
	for _, ph := range m.phases {
		if ph.enabled {
			ph.fill(now)
			m.runBatch(now, ph.name)
		}
	}

	// Name-based scanning.
	m.webProps.PollCT(m.net.CT, now)
	m.webProps.Tick(now)

	// Async event processing (search index, follow-ups).
	m.processor.Drain()

	// Daily housekeeping: the daily analytics snapshot (§5.3's BigQuery
	// export).
	if now.Sub(m.lastDaily) >= dailyEvery {
		m.lastDaily = now
		m.snapshotDaily(now)
	}
}

// dailyEvery is the least time between two rounds of daily housekeeping.
const dailyEvery = 24 * time.Hour

// discover runs Phase 1: new candidates go to the interrogation pool.
func (m *Map) discover(now time.Time) {
	m.disc.Tick(now, func(c discovery.Candidate) {
		if m.tracer.Hit(c.Addr) {
			m.traceEvent(c.Addr, "discovery", "candidate pop="+c.PoP, now)
		}
		m.enqueue(pendingTask{cand: c, kind: taskCandidate})
	})
}

// enqueue appends a task to its shard's FIFO queue. Called serially between
// batches, so per-shard order is exactly enqueue order. In degraded mode,
// tasks for quarantined partitions are fenced: their journal history is
// gone, so writing new events would silently fork those entities' state.
func (m *Map) enqueue(t pendingTask) {
	t.id = t.cand.Addr.String()
	if m.quarantinedID(t.id) {
		return
	}
	s := m.shards[shard.Of(t.id, len(m.shards))]
	s.pending = append(s.pending, t)
}

// runBatch drains every shard's task queue through the worker pool and then
// flushes order-sensitive side effects serially. Worker i owns shards j
// with j % workers == i, so each shard's tasks run in enqueue order on one
// goroutine regardless of the worker count — the fan-out is over shards,
// never within one.
func (m *Map) runBatch(now time.Time, phase string) {
	total := 0
	for _, s := range m.shards {
		total += len(s.pending)
	}
	m.tel.batch(phase, total)
	if total == 0 {
		return
	}
	workers := m.cfg.InterroWorkers
	if workers > len(m.shards) {
		workers = len(m.shards)
	}
	if workers <= 1 {
		for _, s := range m.shards {
			m.drainShard(s, now)
		}
	} else {
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := i; j < len(m.shards); j += workers {
					m.drainShard(m.shards[j], now)
				}
			}(i)
		}
		wg.Wait()
	}
	// Fan-in: redirect observations feed the (single-goroutine) web
	// property pipeline in deterministic shard-index order.
	for _, s := range m.shards {
		for _, loc := range s.redirects {
			m.webProps.ObserveRedirect(loc, now)
		}
		s.redirects = s.redirects[:0]
	}
	// Honeypot uniformity fan-in, same serial shard order.
	m.mergeFarmObservations(now)
}

// drainShard processes one shard's queued tasks in FIFO order.
func (m *Map) drainShard(s *stateShard, now time.Time) {
	tasks := s.pending
	for _, t := range tasks {
		m.processTask(s, t, now)
	}
	// Keep the backing array for the next batch; clear drops the tasks'
	// references.
	clear(tasks)
	s.pending = tasks[:0]
}

// processTask applies one task's gating checks and interrogation. Checks run
// at process time, not enqueue time, so a host flagged (or a slot evicted)
// earlier in the batch suppresses later tasks exactly as the serial inline
// pipeline did. The flagged-host gate is all that is left of suppression
// once the host's services are retired: nothing is written for it again.
func (m *Map) processTask(s *stateShard, t pendingTask, now time.Time) {
	s.mu.Lock()
	_, flagged := s.flagged[t.cand.Addr]
	s.mu.Unlock()
	if flagged {
		m.pseudoFiltered.Add(1)
		return
	}
	key := entity.ServiceKey{Port: t.cand.Port, Transport: t.cand.Transport}
	switch t.kind {
	case taskCandidate:
		if seen, ok := m.processor.LastSeen(t.id, key); ok && now.Sub(seen) < refreshEvery-2*time.Hour {
			return // fresh enough; the refresh loop owns this slot
		}
		m.attemptInterrogate(s, t, now)

	case taskRefresh:
		if _, ok := m.processor.LastSeen(t.id, key); !ok {
			return // evicted or retired earlier in this batch
		}
		m.refreshScans.Add(1)
		m.refreshSlot(s, t, now)

	case taskDirect:
		m.attemptInterrogate(s, t, now)
	}
}

// attemptInterrogate runs one candidate/direct interrogation from the
// candidate's PoP and applies the outcome.
func (m *Map) attemptInterrogate(s *stateShard, t pendingTask, now time.Time) {
	c := t.cand
	in := m.inter[c.PoP]
	if in == nil {
		in = m.inter[m.pops[0].Name]
		c.PoP = m.pops[0].Name
	}
	m.interrogations.Add(1)
	obs := in.Interrogate(c, now)
	if m.tracer.Hit(c.Addr) {
		m.traceEvent(c.Addr, "interrogate", attemptDetail(obs.Success, c.PoP), now)
	}
	m.apply(s, t.id, obs, c, now)
}

// snapshotDaily retains now as an analytics snapshot date: every event of
// this tick is journaled and dated now, so the journal as of now is the map
// as it stands. Ticks arrive in time order, the one thing Record refuses.
func (m *Map) snapshotDaily(now time.Time) {
	_ = m.analytics.Record(now)
}

// rowsAt is the analytics store's row source: every host the journal holds,
// reconstructed as of date (snapshot + delta replay, reaching into the HDD
// tier for old dates) and enriched, flattened into snapshot rows.
func (m *Map) rowsAt(date time.Time) []snapshot.Row {
	var hosts []*entity.Host
	for _, id := range m.processor.Journal().Entities() {
		if h, ok := m.reader.HostAt(id, date); ok && len(h.Services) > 0 {
			hosts = append(hosts, h)
		}
	}
	return snapshot.RowsFromHosts(date, hosts)
}

// apply feeds an observation into the write side and the learning loops.
// It runs on the worker that owns the candidate's shard; everything it
// touches is either shard-local, internally synchronized, or buffered for a
// serial fan-in after the batch. id is c.Addr's entity ID.
func (m *Map) apply(s *stateShard, id string, obs cqrs.Observation, c discovery.Candidate, now time.Time) {
	if obs.Success {
		// Pseudo-host detection: an implausible number of services on one
		// host gets the host flagged and dropped (Censys' pseudo-service
		// filtering).
		s.mu.Lock()
		s.foundPerHost[c.Addr]++
		over := m.cfg.PseudoServiceThreshold > 0 && s.foundPerHost[c.Addr] > m.cfg.PseudoServiceThreshold
		s.mu.Unlock()
		m.predictor.Observe(c.Addr, c.Port, c.Transport)
		m.predictor.Resolve(c.Addr, c.Port, c.Transport)
		if over {
			if m.suppress(c.Addr, flagPseudo, now) {
				m.pseudoFiltered.Add(1)
			}
			return
		}

		// Redirects feed web property names; buffered for the serial
		// post-batch fan-in (the webprop pipeline is order-sensitive).
		if obs.Service != nil {
			if loc := obs.Service.Attributes["http.location"]; loc != "" {
				s.redirects = append(s.redirects, loc)
			}
		}
		// Verified ICS fingerprints feed the honeypot uniformity detector;
		// buffered shard-locally, merged serially after the batch.
		m.observeFingerprint(s, c.Addr, c.Port, obs.Service)
		_ = m.processor.Apply(obs)
		return
	}

	// Eviction bookkeeping: when this failure makes the write side remove
	// the slot, queue it for re-injection.
	_, was := m.processor.LastSeen(id, obs.Key())
	_ = m.processor.Apply(obs)
	if !was {
		return
	}
	if _, still := m.processor.LastSeen(id, obs.Key()); !still {
		m.predictor.RecordEvicted(c.Addr, c.Port, c.Transport, now)
		m.reinjected.Add(1) // queued for re-injection
	}
}

// suppress flags addr and takes it out of the dataset: every service the
// write side materializes for it is retired in canonical key order, so the
// removals are journaled, replicated and drained into the read models like
// any other. It reports false when the host was already flagged.
func (m *Map) suppress(addr netip.Addr, why flagReason, now time.Time) bool {
	s := m.shardFor(addr)
	s.mu.Lock()
	_, already := s.flagged[addr]
	if !already {
		s.flagged[addr] = why
	}
	s.mu.Unlock()
	if already {
		return false
	}
	// Like Apply's: the journal refuses only an out-of-order append, which a
	// removal dated now cannot be.
	_ = m.retireHost(addr, now)
	return true
}

// retireHost journals, dated now, the removal of every service the write
// side materializes for addr, in canonical key order. It returns the first
// journal failure.
func (m *Map) retireHost(addr netip.Addr, now time.Time) error {
	var first error
	if h := m.processor.CurrentState(addr.String()); h != nil {
		for _, svc := range h.AllServices() {
			if err := m.processor.Retire(addr, svc.Key(), now); err != nil && first == nil {
				first = fmt.Errorf("core: retire %v %v: %w", addr, svc.Key(), err)
			}
		}
	}
	return first
}

// refreshDue collects dataset services whose refresh cadence has elapsed and
// enqueues them in canonical (addr, port, transport) order — the write
// side's map iteration order must not leak into the probe sequence.
func (m *Map) refreshDue(now time.Time) {
	m.pruneExclusions(now)
	due := m.due
	m.processor.Walk(func(_ string, h *entity.Host) {
		for _, svc := range h.Services {
			if now.Sub(svc.LastSeen) < refreshEvery {
				continue
			}
			c := discovery.Candidate{Addr: h.IP, Port: svc.Port, Transport: svc.Transport,
				Method: entity.DetectRefresh, Time: now}
			if svc.Transport == entity.UDP {
				// The protocol whose probe elicited the reply.
				c.UDPProtocol = svc.Protocol
			}
			due = append(due, c)
		}
	})
	sort.Slice(due, func(i, j int) bool { return lessSlot(slotOf(due[i]), slotOf(due[j])) })
	for _, c := range due {
		if !m.excludedAddr(c.Addr) {
			m.enqueue(pendingTask{kind: taskRefresh, cand: c})
		}
	}
	clear(due)
	m.due = due[:0]
}

// refreshSlot retries across PoPs: the slot only registers as failed if no
// vantage point can reach it.
func (m *Map) refreshSlot(s *stateShard, t pendingTask, now time.Time) {
	cand := t.cand
	cand.Time = now
	traced := m.tracer.Hit(cand.Addr)
	for _, pop := range m.pops {
		cand.PoP = pop.Name
		in := m.inter[pop.Name]
		m.interrogations.Add(1)
		obs := in.Interrogate(cand, now)
		if traced {
			m.traceEvent(cand.Addr, "refresh", attemptDetail(obs.Success, pop.Name), now)
		}
		if obs.Success {
			m.apply(s, t.id, obs, cand, now)
			return
		}
	}
	// All PoPs failed: record the failure (starts/advances eviction). The
	// observation comes from one more interrogation from the first PoP; it
	// consumes a path sequence number, so dropping it moves every dataset
	// digest (ROADMAP, "A long tail that decays the way App. B says", the
	// digest-moving debts).
	cand.PoP = m.pops[0].Name
	m.interrogations.Add(1)
	obs := m.inter[cand.PoP].Interrogate(cand, now)
	m.apply(s, t.id, obs, cand, now)
}

// runPrediction probes model-recommended locations (serially — the L4
// probes are cheap) and enqueues responsive ones for interrogation. The
// budget is the ledger's grant for the predict class: its own allocation,
// capped by whatever the shared per-tick total has left after discovery.
func (m *Map) runPrediction(now time.Time) {
	budget := m.cfg.PredictBudgetPerTick
	if g := m.ledger.Grant(m.classPredict); g < budget {
		budget = g
	}
	targets := m.predictor.Recommend(now, budget)
	probed, open := 0, 0
	for _, t := range targets {
		if m.excludedAddr(t.Addr) {
			continue
		}
		probed++
		if m.net.ProbeTCP(m.scanner, t.Addr, t.Port) != simnet.Open {
			continue
		}
		open++
		c := discovery.Candidate{Addr: t.Addr, Port: t.Port, Transport: t.Transport,
			Method: entity.DetectPredicted, PoP: m.pops[0].Name, Time: now}
		m.enqueue(pendingTask{cand: c, kind: taskCandidate})
	}
	m.ledger.Account(m.classPredict, probed, open)
}

// runReinjection retries recently evicted services.
func (m *Map) runReinjection(now time.Time) {
	for _, t := range m.predictor.Reinjections(now) {
		if m.excludedAddr(t.Addr) {
			continue
		}
		c := discovery.Candidate{Addr: t.Addr, Port: t.Port, Transport: t.Transport,
			Method: entity.DetectReinjected, PoP: m.pops[0].Name, Time: now}
		m.enqueue(pendingTask{cand: c, kind: taskDirect})
	}
}

// consumeEvent maintains the search index from write-side events. It runs
// serially on the draining goroutine, in the deterministic merged shard
// order Drain guarantees.
func (m *Map) consumeEvent(ev cqrs.OutEvent) {
	addr, err := netip.ParseAddr(ev.Entity)
	if err != nil {
		return
	}
	traced := m.tracer.Hit(addr)
	if traced {
		m.traceEvent(addr, "cqrs", ev.Kind, ev.Time)
	}
	if ev.Kind == cqrs.KindServiceFound {
		m.observeFound(addr, slotKey{addr, ev.Key.Port, ev.Key.Transport}, ev.Time)
	}
	// CurrentState hands over a private clone: enriched, it becomes the
	// index document's host, so nothing here may touch it after Upsert.
	h := m.processor.CurrentState(ev.Entity)
	if h == nil || len(h.Services) == 0 {
		m.index.Remove(ev.Entity)
		if traced {
			m.traceEvent(addr, "index", "remove", ev.Time)
		}
		return
	}
	m.enricher.Enrich(h)
	m.index.Upsert(h)
	if traced {
		m.traceEvent(addr, "index", "upsert", ev.Time)
	}
}
