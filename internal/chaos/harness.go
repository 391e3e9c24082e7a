// Package chaos is the crash-recovery harness for the scanning pipeline: it
// drives tick-stepped runs over a simulated Internet — quiet, faulty or
// hostile, as its scenario says — that can be killed at arbitrary ticks and
// resumed from the journal plus a checkpoint, and compares what they end in.
//
// Every fault draw is a pure function of (scenario seed, scanner ID,
// address or its /24, and either the per-path packet sequence number or a
// wall-clock window index); see simnet.AdversaryConfig. None depend on
// goroutine interleaving, shard count, or worker count, so a scenario and
// its seed name one exact fault schedule: replaying it reproduces the same
// drops packet-for-packet under any pipeline layout. That is what makes
// failures found under chaos reproducible from the seed alone.
package chaos

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/netip"
	"sort"

	"censysmap/internal/core"
	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
)

// RunSpec describes one deterministic pipeline run: a simulated universe
// (its scenario included), a pipeline layout, and a duration in ticks. Two
// runs of the same spec produce identical datasets; so do two runs differing
// only in Pipeline.Shards / Pipeline.InterroWorkers.
type RunSpec struct {
	// Prefix is the simulated universe's address space.
	Prefix netip.Prefix
	// UniverseSeed seeds the simulated Internet.
	UniverseSeed uint64
	// Net optionally overrides the simnet config; Prefix and Seed are
	// always replaced by the fields above.
	Net *simnet.Config
	// Pipeline configures the scanning pipeline. Tick must be set.
	Pipeline core.Config
	// Ticks is how many pipeline ticks to run.
	Ticks int
}

// Lab returns a RunSpec for a small, quiet /23 universe under scenario,
// suited to fast chaos tests: simnet ambient noise off so the scenario's
// faults are the only disturbance.
func Lab(universeSeed uint64, scenario simnet.AdversaryConfig, ticks int) RunSpec {
	ncfg := simnet.DefaultConfig()
	ncfg.Prefix = netip.MustParsePrefix("10.40.0.0/23")
	ncfg.Seed = universeSeed
	ncfg.CloudBlocks = 1
	ncfg.WebProperties = 12
	ncfg.BaseLoss = 0
	ncfg.OutageRate = 0
	ncfg.GeoblockRate = 0
	ncfg.Adversary = scenario

	pcfg := core.DefaultConfig()
	pcfg.CloudBlocks = 1
	pcfg.SnapshotEvery = 4 // exercise snapshot+delta replay quickly

	return RunSpec{
		Prefix:       ncfg.Prefix,
		UniverseSeed: universeSeed,
		Net:          &ncfg,
		Pipeline:     pcfg,
		Ticks:        ticks,
	}
}

// Run is a live pipeline mid-flight: the simulated world, its clock, and the
// Map.
type Run struct {
	Net   *simnet.Internet
	Clock *simclock.Sim
	Map   *core.Map

	spec RunSpec
	tick int
	// parked holds the engine-external durable stores across a CrashToDisk /
	// ResumeFromDisk cycle (see disk.go).
	parked *parkedStores
}

// Start builds the universe and pipeline for spec and performs the seed
// scan, but advances no ticks.
func Start(spec RunSpec) (*Run, error) {
	ncfg := simnet.DefaultConfig()
	if spec.Net != nil {
		ncfg = *spec.Net
	}
	ncfg.Prefix = spec.Prefix
	ncfg.Seed = spec.UniverseSeed
	clk := simclock.New()
	net := simnet.New(ncfg, clk)
	m, err := core.New(spec.Pipeline, net)
	if err != nil {
		return nil, err
	}
	m.Start()
	return &Run{Net: net, Clock: clk, Map: m, spec: spec}, nil
}

// Step advances the run by n ticks. Every tick boundary must satisfy the
// Map's cross-layer invariants; a violation is a pipeline bug no differential
// may mask, so it panics rather than letting the run continue.
func (r *Run) Step(n int) {
	for i := 0; i < n; i++ {
		r.Clock.Advance(r.spec.Pipeline.Tick)
		r.tick++
		if err := r.Map.CheckInvariants(); err != nil {
			panic(fmt.Sprintf("chaos: invariants broken after tick %d:\n%v", r.tick, err))
		}
	}
}

// Tick reports how many ticks the run has executed.
func (r *Run) Tick() int { return r.tick }

// Crash kills the pipeline process: it checkpoints at the current tick
// boundary, stops the Map, and serializes the checkpoint through JSON —
// everything the resumed process will see crosses a byte boundary, so
// nothing in-memory can leak across the "crash". The simulated Internet,
// clock, and durable stores survive, exactly as the real network, wall
// clock, and Bigtable would.
func (r *Run) Crash() (core.Durable, core.Checkpoint, error) {
	cp := r.Map.Checkpoint()
	d := r.Map.Durable()
	r.Map.Stop()
	r.Map = nil
	blob, err := json.Marshal(cp)
	if err != nil {
		return core.Durable{}, core.Checkpoint{}, fmt.Errorf("chaos: checkpoint marshal: %w", err)
	}
	var rt core.Checkpoint
	if err := json.Unmarshal(blob, &rt); err != nil {
		return core.Durable{}, core.Checkpoint{}, fmt.Errorf("chaos: checkpoint unmarshal: %w", err)
	}
	return d, rt, nil
}

// Resume rebuilds the pipeline from the durable stores plus a checkpoint
// and restarts it on the surviving clock.
func (r *Run) Resume(d core.Durable, cp core.Checkpoint) error {
	m, err := core.Resume(r.spec.Pipeline, r.Net, d, cp)
	if err != nil {
		return err
	}
	r.Map = m
	m.Start()
	return m.CheckInvariants()
}

// Complete runs spec for its full duration without interruption and returns
// the finished run.
func Complete(spec RunSpec) (*Run, error) {
	r, err := Start(spec)
	if err != nil {
		return nil, err
	}
	r.Step(spec.Ticks)
	return r, nil
}

// CompleteWithCrash runs spec but kills the process at crashTick (after
// that tick's work drains), resumes from journal replay plus the
// round-tripped checkpoint, and finishes the remaining ticks. The result
// must be indistinguishable from Complete(spec) — that is the crash-recovery
// contract the differential tests enforce.
func CompleteWithCrash(spec RunSpec, crashTick int) (*Run, error) {
	if crashTick < 1 || crashTick >= spec.Ticks {
		return nil, fmt.Errorf("chaos: crashTick %d outside (0, %d)", crashTick, spec.Ticks)
	}
	r, err := Start(spec)
	if err != nil {
		return nil, err
	}
	r.Step(crashTick)
	d, cp, err := r.Crash()
	if err != nil {
		return nil, err
	}
	if err := r.Resume(d, cp); err != nil {
		return nil, err
	}
	r.Step(spec.Ticks - crashTick)
	return r, nil
}

// diffQueries are the canned search queries every Observation evaluates.
var diffQueries = []string{
	`services.protocol: HTTP`,
	`services.port: 443`,
	`services.protocol: SSH`,
}

// Observation is the externally visible state of a pipeline, projected into
// comparable form. Two runs with equal Observations answered every query,
// export, and journal read identically.
type Observation struct {
	// Services is the full dataset export, pending rows included.
	Services []core.ServiceRecord
	// Stats are the pipeline's run counters.
	Stats core.RunStats
	// Observations / NoChange are the write-path counters.
	Observations uint64
	NoChange     uint64
	// Entities is the sorted journal row-key list.
	Entities []string
	// JournalDigest hashes every journal event (entity, seq, time, kind,
	// payload) in canonical order.
	JournalDigest string
	// WebDigest hashes the web-property pipeline's canonical state and
	// its journal.
	WebDigest string
	// QueryCounts maps each canned search query to its hit count.
	QueryCounts map[string]int
	// QueryDigest hashes the sorted result IPs of each canned query.
	QueryDigest string
	// PartitionDigests hashes each journal partition independently — rows,
	// events, and access counters — so degraded-mode comparisons can hold
	// healthy partitions to bit-identity while ignoring quarantined ones.
	PartitionDigests []string
	// QueryIPs holds each canned query's sorted result IPs, for the
	// per-partition filtering DegradedDiff performs.
	QueryIPs map[string][]string
}

// Observe projects m into an Observation.
func Observe(m *core.Map) (Observation, error) {
	obs, noChange := m.WriteStats()
	o := Observation{
		Services:     m.CurrentServices(true),
		Stats:        m.Stats(),
		Observations: obs,
		NoChange:     noChange,
		QueryCounts:  map[string]int{},
	}

	j := m.Journal()
	o.Entities = j.Entities()
	sort.Strings(o.Entities)
	jh := sha256.New()
	var seqb [8]byte
	for _, id := range o.Entities {
		for _, ev := range j.Events(id) {
			jh.Write([]byte(ev.Entity))
			binary.BigEndian.PutUint64(seqb[:], ev.Seq)
			jh.Write(seqb[:])
			binary.BigEndian.PutUint64(seqb[:], uint64(ev.Time.UnixNano()))
			jh.Write(seqb[:])
			jh.Write([]byte(ev.Kind))
			jh.Write(ev.Payload)
		}
	}
	o.JournalDigest = hex.EncodeToString(jh.Sum(nil))

	for pi := 0; pi < j.Partitions(); pi++ {
		o.PartitionDigests = append(o.PartitionDigests, digestPartition(j.DumpPartition(pi)))
	}

	wh := sha256.New()
	wstate, err := json.Marshal(m.WebProperties().State())
	if err != nil {
		return o, err
	}
	wh.Write(wstate)
	wj := m.WebProperties().Journal()
	wents := wj.Entities()
	sort.Strings(wents)
	for _, id := range wents {
		for _, ev := range wj.Events(id) {
			wh.Write([]byte(ev.Entity))
			binary.BigEndian.PutUint64(seqb[:], ev.Seq)
			wh.Write(seqb[:])
			wh.Write([]byte(ev.Kind))
			wh.Write(ev.Payload)
		}
	}
	o.WebDigest = hex.EncodeToString(wh.Sum(nil))

	qh := sha256.New()
	for _, q := range diffQueries {
		hosts, err := m.Search(q)
		if err != nil {
			return o, fmt.Errorf("chaos: query %q: %w", q, err)
		}
		n, err := m.Count(q)
		if err != nil {
			return o, fmt.Errorf("chaos: count %q: %w", q, err)
		}
		if n != len(hosts) {
			return o, fmt.Errorf("chaos: query %q: count %d != %d hits", q, n, len(hosts))
		}
		o.QueryCounts[q] = n
		ips := make([]string, len(hosts))
		for i, h := range hosts {
			ips[i] = h.IP.String()
		}
		sort.Strings(ips)
		if o.QueryIPs == nil {
			o.QueryIPs = map[string][]string{}
		}
		o.QueryIPs[q] = ips
		qh.Write([]byte(q))
		for _, ip := range ips {
			qh.Write([]byte(ip))
			qh.Write([]byte{0})
		}
	}
	o.QueryDigest = hex.EncodeToString(qh.Sum(nil))
	return o, nil
}

// Diff compares two Observations and returns human-readable mismatches;
// empty means the runs are externally indistinguishable.
func Diff(a, b Observation) []string {
	var out []string
	if len(a.Services) != len(b.Services) {
		out = append(out, fmt.Sprintf("service count: %d vs %d", len(a.Services), len(b.Services)))
	} else {
		for i := range a.Services {
			if a.Services[i] != b.Services[i] {
				out = append(out, fmt.Sprintf("service[%d]: %+v vs %+v", i, a.Services[i], b.Services[i]))
				break
			}
		}
	}
	if a.Stats != b.Stats {
		out = append(out, fmt.Sprintf("run stats: %+v vs %+v", a.Stats, b.Stats))
	}
	if a.Observations != b.Observations || a.NoChange != b.NoChange {
		out = append(out, fmt.Sprintf("write stats: (%d,%d) vs (%d,%d)",
			a.Observations, a.NoChange, b.Observations, b.NoChange))
	}
	if len(a.Entities) != len(b.Entities) {
		out = append(out, fmt.Sprintf("journal entities: %d vs %d", len(a.Entities), len(b.Entities)))
	}
	if a.JournalDigest != b.JournalDigest {
		out = append(out, "journal digest mismatch")
	}
	if a.WebDigest != b.WebDigest {
		out = append(out, "web-property digest mismatch")
	}
	for _, q := range diffQueries {
		if a.QueryCounts[q] != b.QueryCounts[q] {
			out = append(out, fmt.Sprintf("query %q: %d vs %d hits", q, a.QueryCounts[q], b.QueryCounts[q]))
		}
	}
	if a.QueryDigest != b.QueryDigest {
		out = append(out, "query result digest mismatch")
	}
	return out
}
