package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"censysmap/internal/core"
	"censysmap/internal/cqrs"
	"censysmap/internal/draw"
	"censysmap/internal/durable"
	"censysmap/internal/journal"
	"censysmap/internal/shard"
)

// This file extends the chaos harness below the process boundary: instead of
// handing the durable stores to Resume in memory, CrashToDisk persists them
// through the real storage engine (internal/durable), a deterministic
// injector corrupts the resulting files, and ResumeFromDisk recovers through
// the engine's checksum/repair/quarantine machinery. The differential tests
// then compare the recovered pipeline against an uninterrupted twin — either
// bit-identically (every fault repaired) or per healthy partition (faults
// quarantined, degraded mode).

// crashRecordsPerSegment keeps lab-sized partitions spanning several sealed
// segments plus an active tail, so every fault class has a target.
const crashRecordsPerSegment = 8

// CrashToDisk checkpoints at the current tick boundary, persists the
// journals and checkpoint through the durable storage engine, and kills the
// process, parking the search index on the Run: it models a separate durable
// service (an ES cluster) whose on-disk format is outside the storage layer.
func (r *Run) CrashToDisk(dir string) error {
	err := r.Map.SaveDurable(dir, durable.SaveOptions{RecordsPerSegment: crashRecordsPerSegment})
	d := r.Map.Durable()
	r.Map.Stop()
	r.Map = nil
	if err != nil {
		return fmt.Errorf("chaos: save durable stores: %w", err)
	}
	r.parkedIndex = d.Index
	return nil
}

// ResumeFromDisk recovers the stores written by CrashToDisk — surviving
// whatever CorruptDisk did to them — and restarts the pipeline. Quarantined
// journal partitions put the resumed Map in degraded mode; a quarantined
// web-property partition is fatal (that pipeline has no degraded tier). The
// recovery report is returned for the caller's assertions.
func (r *Run) ResumeFromDisk(dir string) (*durable.RecoveryReport, error) {
	if r.parkedIndex == nil {
		return nil, fmt.Errorf("chaos: ResumeFromDisk without CrashToDisk")
	}
	res, err := durable.Load(dir, durable.LoadOptions{
		Rebuild: map[string]durable.SnapshotRebuilder{
			"journal": cqrs.RebuildSnapshotPayload,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: load durable stores: %w", err)
	}
	if q := res.Report.Quarantined["webjournal"]; len(q) > 0 {
		return res.Report, fmt.Errorf("chaos: web-property partitions %v unrecoverable", q)
	}
	var cp core.Checkpoint
	if err := json.Unmarshal(res.Checkpoint, &cp); err != nil {
		return res.Report, fmt.Errorf("chaos: checkpoint unmarshal: %w", err)
	}
	d := core.Durable{
		Journal:     res.Stores["journal"],
		WebJournal:  res.Stores["webjournal"],
		Index:       r.parkedIndex,
		Quarantined: res.Report.Quarantined["journal"],
		Storage:     res.Metrics,
	}
	m, err := core.Resume(r.spec.Pipeline, r.Net, d, cp)
	if err != nil {
		return res.Report, err
	}
	r.Map = m
	m.Start()
	return res.Report, m.CheckInvariants()
}

// DiskFaults is a deterministic disk-corruption schedule. Every target is a
// pure function of Seed and the stable file/record identifiers of the saved
// store, so a schedule names the same bytes on every run of the same
// pipeline. The zero value injects nothing.
type DiskFaults struct {
	// Seed drives all target selection.
	Seed uint64
	// Store names the journal store to corrupt (default "journal").
	Store string

	// DeltaFlips flips one bit in that many non-repairable records (deltas,
	// row headers, partition counters). Recovery detects each via CRC32C and
	// must quarantine the partition.
	DeltaFlips int
	// SnapshotFlips flips one bit in that many snapshot records whose replay
	// reconstruction is provably byte-exact (the injector pre-checks the CRC
	// proof). Recovery must repair each and stay bit-identical.
	SnapshotFlips int
	// TornTails cuts that many partitions' active segments mid-record — the
	// torn-write crash signature. Recovery must restore the tail from the
	// doublewrite sidecar.
	TornTails int
	// Truncations cuts that many sealed segments short, destroying the
	// footer and at least one record. Unrepairable: quarantine.
	Truncations int
	// MissingFiles deletes that many segment files. Unrepairable: quarantine.
	MissingFiles int

	// CheckpointFlip corrupts the primary checkpoint file; recovery must
	// fall back to the mirror.
	CheckpointFlip bool
}

// DiskCorruption records one injected fault, with the outcome recovery is
// expected to report for it.
type DiskCorruption struct {
	// Path is the mutated file, relative to the store directory.
	Path string `json:"path"`
	// Partition is the journal partition hit, -1 for checkpoint-level faults.
	Partition int `json:"partition"`
	// Record is the record index within the file, -1 when not record-scoped.
	Record int `json:"record"`
	// Fault is the durable.Fault* class recovery should detect.
	Fault string `json:"fault"`
	// Quarantines reports whether the fault is unrepairable — recovery must
	// quarantine the partition rather than restore it.
	Quarantines bool `json:"quarantines"`
}

// diskRecord is one scanned record with enough context to classify it.
type diskRecord struct {
	rel        string // file, relative to dir
	partition  int
	record     int   // index within the file
	payloadOff int64 // absolute file offset of the payload bytes
	payloadLen int
	repairable bool // CRC-proven snapshot reconstruction pre-checked
	lastActive bool // final record of the partition's active segment
}

// diskSegment is one scanned segment file.
type diskSegment struct {
	rel       string
	partition int
	sealed    bool
	frames    []durable.Frame
}

// rowState is the per-partition row-decoding context the scanner threads
// across a partition's segment chain (one logical record stream).
type rowState struct {
	entity string
	events []journal.Event
	want   int
}

// Draw-domain tags for disk-fault target selection (disjoint from the
// network injector's 0xC4A0 block).
const (
	tagDeltaFlip = iota + 0xD15C
	tagSnapFlip
	tagTornTail
	tagTruncate
	tagMissing
	tagCPFlip
	tagFlipBit
)

// CorruptDisk applies f to the store directory written by CrashToDisk and
// returns what it did, in injection order. Target selection is without
// replacement; unrepairable faults claim their partition so the repairable
// classes (torn tails, snapshot flips) land on partitions whose recovery
// outcome stays observable. It is an error to request more faults than the
// store has targets for — a schedule that silently under-injects would
// weaken the differential suite.
func CorruptDisk(dir string, f DiskFaults) ([]DiskCorruption, error) {
	store := f.Store
	if store == "" {
		store = "journal"
	}
	segs, records, err := scanStore(dir, store)
	if err != nil {
		return nil, err
	}

	var out []DiskCorruption
	claimed := map[int]bool{} // partitions whose recovery outcome is already forced

	// Unrepairable classes first: they claim partitions.
	for i := 0; i < f.MissingFiles; i++ {
		cands := filterSegs(segs, func(s diskSegment) bool { return !claimed[s.partition] })
		if len(cands) == 0 {
			return out, fmt.Errorf("chaos: no segment left to delete")
		}
		s := cands[draw.Mix(f.Seed, tagMissing, uint64(i))%uint64(len(cands))]
		if err := os.Remove(filepath.Join(dir, s.rel)); err != nil {
			return out, err
		}
		claimed[s.partition] = true
		out = append(out, DiskCorruption{Path: s.rel, Partition: s.partition,
			Record: -1, Fault: durable.FaultMissing, Quarantines: true})
	}
	for i := 0; i < f.Truncations; i++ {
		cands := filterSegs(segs, func(s diskSegment) bool {
			return s.sealed && !claimed[s.partition] && len(s.frames) > 0
		})
		if len(cands) == 0 {
			return out, fmt.Errorf("chaos: no sealed segment left to truncate")
		}
		s := cands[draw.Mix(f.Seed, tagTruncate, uint64(i))%uint64(len(cands))]
		// Cut mid-frame-header at a drawn record: the footer and at least one
		// record are gone, beyond what any sidecar covers.
		fi := int(draw.Mix(f.Seed, tagTruncate, uint64(i), 1) % uint64(len(s.frames)))
		cut := s.frames[fi].Offset + 3
		if err := os.Truncate(filepath.Join(dir, s.rel), cut); err != nil {
			return out, err
		}
		claimed[s.partition] = true
		out = append(out, DiskCorruption{Path: s.rel, Partition: s.partition,
			Record: fi, Fault: durable.FaultTruncated, Quarantines: true})
	}
	for i := 0; i < f.DeltaFlips; i++ {
		cands := filterRecords(records, func(r diskRecord) bool {
			return !r.repairable && !r.lastActive && !claimed[r.partition] && r.payloadLen > 0
		})
		if len(cands) == 0 {
			return out, fmt.Errorf("chaos: no unrepairable record left to flip")
		}
		r := cands[draw.Mix(f.Seed, tagDeltaFlip, uint64(i))%uint64(len(cands))]
		if err := flipBit(dir, r, draw.Mix(f.Seed, tagDeltaFlip, uint64(i), tagFlipBit)); err != nil {
			return out, err
		}
		claimed[r.partition] = true
		out = append(out, DiskCorruption{Path: r.rel, Partition: r.partition,
			Record: r.record, Fault: durable.FaultChecksum, Quarantines: true})
	}

	// Repairable classes on unclaimed partitions only.
	tornDone := map[int]bool{}
	for i := 0; i < f.TornTails; i++ {
		cands := filterSegs(segs, func(s diskSegment) bool {
			return !s.sealed && !claimed[s.partition] && !tornDone[s.partition] && len(s.frames) > 0
		})
		if len(cands) == 0 {
			return out, fmt.Errorf("chaos: no active segment left to tear")
		}
		s := cands[draw.Mix(f.Seed, tagTornTail, uint64(i))%uint64(len(cands))]
		last := s.frames[len(s.frames)-1]
		span := uint64(8 + len(last.Payload)) // frame header + payload
		cut := last.Offset + 1 + int64(draw.Mix(f.Seed, tagTornTail, uint64(i), 1)%(span-1))
		if err := os.Truncate(filepath.Join(dir, s.rel), cut); err != nil {
			return out, err
		}
		tornDone[s.partition] = true
		out = append(out, DiskCorruption{Path: s.rel, Partition: s.partition,
			Record: len(s.frames) - 1, Fault: durable.FaultTornTail, Quarantines: false})
	}
	snapDone := map[string]bool{}
	for i := 0; i < f.SnapshotFlips; i++ {
		cands := filterRecords(records, func(r diskRecord) bool {
			return r.repairable && !r.lastActive && !claimed[r.partition] &&
				!snapDone[r.rel+"#"+strconv.Itoa(r.record)]
		})
		if len(cands) == 0 {
			return out, fmt.Errorf("chaos: no provably repairable snapshot left to flip")
		}
		r := cands[draw.Mix(f.Seed, tagSnapFlip, uint64(i))%uint64(len(cands))]
		if err := flipBit(dir, r, draw.Mix(f.Seed, tagSnapFlip, uint64(i), tagFlipBit)); err != nil {
			return out, err
		}
		snapDone[r.rel+"#"+strconv.Itoa(r.record)] = true
		out = append(out, DiskCorruption{Path: r.rel, Partition: r.partition,
			Record: r.record, Fault: durable.FaultChecksum, Quarantines: false})
	}

	if f.CheckpointFlip {
		rel, err := primaryCheckpoint(dir)
		if err != nil {
			return out, err
		}
		data, err := os.ReadFile(filepath.Join(dir, rel))
		if err != nil {
			return out, err
		}
		// Flip inside the record payload (past the 16-byte header and 8-byte
		// frame header, clear of the 24-byte footer).
		lo, hi := int64(24), int64(len(data)-24)
		if hi <= lo {
			return out, fmt.Errorf("chaos: checkpoint %s too small to corrupt", rel)
		}
		pick := draw.Mix(f.Seed, tagCPFlip)
		data[lo+int64(pick%uint64(hi-lo))] ^= 1 << (draw.Mix(pick) % 8)
		if err := os.WriteFile(filepath.Join(dir, rel), data, 0o644); err != nil {
			return out, err
		}
		out = append(out, DiskCorruption{Path: rel, Partition: -1, Record: 0,
			Fault: durable.FaultCheckpoint, Quarantines: false})
	}
	return out, nil
}

// scanStore walks one saved store's segment files in manifest order and
// classifies every record, pre-checking which snapshot records the CRC-proven
// replay repair will provably reconstruct.
func scanStore(dir, store string) ([]diskSegment, []diskRecord, error) {
	rels, err := durable.SegmentFiles(dir, store)
	if err != nil {
		return nil, nil, err
	}
	if len(rels) == 0 {
		return nil, nil, fmt.Errorf("chaos: no segments of store %s in %s", store, dir)
	}

	var segs []diskSegment
	var records []diskRecord
	rows := map[int]*rowState{}

	for _, rel := range rels {
		data, err := os.ReadFile(filepath.Join(dir, rel))
		if err != nil {
			return nil, nil, err
		}
		scan, err := durable.InspectSegment(data)
		if err != nil {
			return nil, nil, fmt.Errorf("chaos: %s: %w", rel, err)
		}
		part := int(scan.Partition)
		segs = append(segs, diskSegment{rel: rel, partition: part,
			sealed: scan.Sealed, frames: scan.Frames})
		rs := rows[part]
		if rs == nil {
			rs = &rowState{}
			rows[part] = rs
		}
		for fi, fr := range scan.Frames {
			rec := diskRecord{rel: rel, partition: part, record: fi,
				payloadOff: fr.PayloadOff, payloadLen: len(fr.Payload)}
			dr, err := durable.DecodeRecord(fr.Payload)
			if err != nil {
				return nil, nil, fmt.Errorf("chaos: %s record %d: %w", rel, fi, err)
			}
			switch dr.Tag {
			case durable.TagRow:
				rs.entity, rs.want, rs.events = dr.Row.Entity, dr.Row.Events, rs.events[:0]
			case durable.TagEvent:
				rec.repairable = provablyRepairable(rs, dr.Ev)
				rs.events = append(rs.events, dr.Ev.Event(rs.entity))
			}
			records = append(records, rec)
		}
	}
	// Mark each partition's final record — it lives in the active (unsealed)
	// tail segment, where corrupting it exercises the doublewrite path, not
	// the class the flip schedules mean to test.
	lastIdx := map[int]int{}
	for i, r := range records {
		lastIdx[r.partition] = i
	}
	for _, i := range lastIdx {
		records[i].lastActive = true
	}
	return segs, records, nil
}

// provablyRepairable reports whether recovery's CRC-proven snapshot repair
// is guaranteed to reconstruct this record: it must be a snapshot event with
// at least one prior event in its row, and replaying those priors must
// reproduce the stored payload byte-for-byte (no un-journaled state baked
// into the original snapshot).
func provablyRepairable(rs *rowState, ev durable.EventRecord) bool {
	if ev.Kind != journal.SnapshotKind || len(rs.events) == 0 || len(rs.events) >= rs.want {
		return false
	}
	prev := rs.events[len(rs.events)-1]
	if ev.Seq != prev.Seq+1 || ev.NS != prev.Time.UnixNano() {
		return false
	}
	rebuilt, err := cqrs.RebuildSnapshotPayload(rs.entity, rs.events)
	if err != nil {
		return false
	}
	return bytes.Equal(rebuilt, ev.Payload)
}

func filterSegs(segs []diskSegment, keep func(diskSegment) bool) []diskSegment {
	var out []diskSegment
	for _, s := range segs {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

func filterRecords(recs []diskRecord, keep func(diskRecord) bool) []diskRecord {
	var out []diskRecord
	for _, r := range recs {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// flipBit flips one drawn bit of the record's payload in place.
func flipBit(dir string, r diskRecord, drawn uint64) error {
	path := filepath.Join(dir, r.rel)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	off := r.payloadOff + int64(drawn%uint64(r.payloadLen))
	data[off] ^= 1 << (draw.Mix(drawn) % 8)
	return os.WriteFile(path, data, 0o644)
}

// primaryCheckpoint returns the relative path of the newest generation's
// primary checkpoint file.
func primaryCheckpoint(dir string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "checkpoint", "cp-*.a"))
	if err != nil {
		return "", err
	}
	if len(paths) == 0 {
		return "", fmt.Errorf("chaos: no checkpoint files under %s", dir)
	}
	sort.Strings(paths)
	rel, err := filepath.Rel(dir, paths[len(paths)-1])
	if err != nil {
		return "", err
	}
	return rel, nil
}

// digestPartition hashes one journal partition's durable state — its rows
// and their events — in canonical order. That is all a partition holds: tier
// split, sequence state and write counters are functions of the events.
func digestPartition(d journal.PartitionDump) string {
	h := sha256.New()
	var b [8]byte
	u64 := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range d.Rows {
		h.Write([]byte(r.Entity))
		h.Write([]byte{0})
		u64(uint64(len(r.Events)))
		for _, ev := range r.Events {
			u64(ev.Seq)
			u64(uint64(ev.Time.UnixNano()))
			h.Write([]byte(ev.Kind))
			h.Write(ev.Payload)
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// DegradedDiff compares a degraded observation against a healthy baseline
// taken at the same tick: every partition outside the quarantined set must
// be bit-identical, and every external surface (dataset export, entity list,
// query results) must equal the baseline with the quarantined partitions'
// entities filtered out. Empty means the degradation is exactly the
// quarantined slice and nothing else.
func DegradedDiff(base, degraded Observation, quarantined []int, mod int) []string {
	var out []string
	quar := make(map[int]bool, len(quarantined))
	for _, p := range quarantined {
		quar[p] = true
	}
	healthy := func(ip string) bool { return !quar[shard.Of(ip, mod)] }

	if len(base.PartitionDigests) != mod || len(degraded.PartitionDigests) != mod {
		return append(out, fmt.Sprintf("partition digest count: baseline %d, degraded %d, modulus %d",
			len(base.PartitionDigests), len(degraded.PartitionDigests), mod))
	}
	for pi := 0; pi < mod; pi++ {
		if quar[pi] {
			continue
		}
		if base.PartitionDigests[pi] != degraded.PartitionDigests[pi] {
			out = append(out, fmt.Sprintf("healthy partition %d digest mismatch", pi))
		}
	}

	var wantSvc []core.ServiceRecord
	for _, s := range base.Services {
		if healthy(s.Addr.String()) {
			wantSvc = append(wantSvc, s)
		}
	}
	if len(wantSvc) != len(degraded.Services) {
		out = append(out, fmt.Sprintf("service count: %d healthy baseline vs %d degraded",
			len(wantSvc), len(degraded.Services)))
	} else {
		for i := range wantSvc {
			if wantSvc[i] != degraded.Services[i] {
				out = append(out, fmt.Sprintf("service[%d]: %+v vs %+v", i, wantSvc[i], degraded.Services[i]))
				break
			}
		}
	}

	var wantEnt []string
	for _, id := range base.Entities {
		if healthy(id) {
			wantEnt = append(wantEnt, id)
		}
	}
	if !slicesEqual(wantEnt, degraded.Entities) {
		out = append(out, fmt.Sprintf("entities: %d healthy baseline vs %d degraded",
			len(wantEnt), len(degraded.Entities)))
	}

	if base.Stats != degraded.Stats {
		out = append(out, fmt.Sprintf("run stats: %+v vs %+v", base.Stats, degraded.Stats))
	}
	if base.Observations != degraded.Observations || base.NoChange != degraded.NoChange {
		out = append(out, fmt.Sprintf("write stats: (%d,%d) vs (%d,%d)",
			base.Observations, base.NoChange, degraded.Observations, degraded.NoChange))
	}
	if base.WebDigest != degraded.WebDigest {
		out = append(out, "web-property digest mismatch")
	}

	for _, q := range diffQueries {
		var want []string
		for _, ip := range base.QueryIPs[q] {
			if healthy(ip) {
				want = append(want, ip)
			}
		}
		if !slicesEqual(want, degraded.QueryIPs[q]) {
			out = append(out, fmt.Sprintf("query %q: %d healthy baseline hits vs %d degraded",
				q, len(want), len(degraded.QueryIPs[q])))
		}
	}
	return out
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
