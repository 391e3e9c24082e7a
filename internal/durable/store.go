package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"censysmap/internal/journal"
	"censysmap/internal/telemetry"
)

// On-disk layout of a store directory:
//
//	MANIFEST, MANIFEST.bak            single-record manifest segments
//	stores/<name>/p0000/records.seg   the partition's records, one file
//	stores/<name>/p0000/tail.dwb      doublewrite copy of the tail record
//	checkpoint/cp-000001.a / .b       checkpoint blob, primary + mirror
//
// A partition is one segment file, always rewritten whole, so it has no
// footer: the manifest's record count and segment checksum seal it. It
// lives in p0000 or q0000: a save rewrites it into whichever of the two the
// live manifest does not name, so no file the live generation needs is
// touched. Every file is written to a temp name and renamed into
// place; the manifest is written last, so a save is atomic at the manifest
// boundary, and only then are the files it no longer names removed. The
// manifest's generation names the checkpoint to read; nothing else records
// it.

// Fault kinds recovery and fsck report.
const (
	FaultChecksum   = "checksum"
	FaultTornTail   = "torn_tail"
	FaultTruncated  = "truncated"
	FaultMissing    = "missing"
	FaultBadHeader  = "bad_header"
	FaultCheckpoint = "checkpoint"
	FaultDecode     = "decode"
)

// Recovery actions taken for a finding.
const (
	ActionRebuiltSnapshot = "rebuilt_snapshot"
	ActionRestoredTail    = "truncated_restored"
	ActionQuarantined     = "quarantined"
	ActionFellBack        = "fallback_mirror"
)

// Finding is one detected fault with the exact location and the recovery
// action taken (or, for fsck, the action recovery would take).
type Finding struct {
	Store     string `json:"store,omitempty"`
	Partition int    `json:"partition"`
	File      string `json:"file,omitempty"`
	Record    int    `json:"record"`
	Offset    int64  `json:"offset"`
	Fault     string `json:"fault"`
	Action    string `json:"action"`
	Detail    string `json:"detail,omitempty"`
}

// Metrics are the storage engine's censys_storage_* counters. They are live
// telemetry counters (like the chaos injector's), so recovery increments and
// /v2/metrics read the same memory.
type Metrics struct {
	RecordsVerified       *telemetry.Counter
	ChecksumFailures      *telemetry.Counter
	TailsTruncated        *telemetry.Counter
	SnapshotsRebuilt      *telemetry.Counter
	PartitionsQuarantined *telemetry.Counter
	CheckpointFallbacks   *telemetry.Counter
}

// NewMetrics returns zeroed storage counters.
func NewMetrics() *Metrics {
	return &Metrics{
		RecordsVerified:       telemetry.NewCounter(),
		ChecksumFailures:      telemetry.NewCounter(),
		TailsTruncated:        telemetry.NewCounter(),
		SnapshotsRebuilt:      telemetry.NewCounter(),
		PartitionsQuarantined: telemetry.NewCounter(),
		CheckpointFallbacks:   telemetry.NewCounter(),
	}
}

// Register exposes the counters on reg as the censys_storage_* family.
func (m *Metrics) Register(reg *telemetry.Registry) {
	if m == nil || reg == nil {
		return
	}
	reg.RegisterCounter("censys_storage_records_verified_total",
		"segment records whose CRC32C verified during recovery", nil, m.RecordsVerified)
	reg.RegisterCounter("censys_storage_checksum_failures_total",
		"segment records that failed their CRC32C during recovery", nil, m.ChecksumFailures)
	reg.RegisterCounter("censys_storage_tails_truncated_total",
		"torn segment tails truncated to the last valid record and restored", nil, m.TailsTruncated)
	reg.RegisterCounter("censys_storage_snapshots_rebuilt_total",
		"corrupt snapshot records reconstructed by CRC-proven replay", nil, m.SnapshotsRebuilt)
	reg.RegisterCounter("censys_storage_partitions_quarantined_total",
		"journal partitions quarantined as unrecoverable", nil, m.PartitionsQuarantined)
	reg.RegisterCounter("censys_storage_checkpoint_fallbacks_total",
		"checkpoint reads that fell back to the mirror copy", nil, m.CheckpointFallbacks)
}

// StorageStats is a plain snapshot of the counters, for assertions.
type StorageStats struct {
	RecordsVerified       uint64
	ChecksumFailures      uint64
	TailsTruncated        uint64
	SnapshotsRebuilt      uint64
	PartitionsQuarantined uint64
	CheckpointFallbacks   uint64
}

// Stats reads the current counter values.
func (m *Metrics) Stats() StorageStats {
	if m == nil {
		return StorageStats{}
	}
	return StorageStats{
		RecordsVerified:       m.RecordsVerified.Value(),
		ChecksumFailures:      m.ChecksumFailures.Value(),
		TailsTruncated:        m.TailsTruncated.Value(),
		SnapshotsRebuilt:      m.SnapshotsRebuilt.Value(),
		PartitionsQuarantined: m.PartitionsQuarantined.Value(),
		CheckpointFallbacks:   m.CheckpointFallbacks.Value(),
	}
}

// manifestVersion names the on-disk format a store directory was saved in.
// Version 5 keeps each partition in one footerless segment file sealed by
// its manifest entry, holding the binary journal record (record.go) around
// the binary event payload (cqrs/payload.go), events only. Versions 1 (JSON
// envelopes), 2 (binary records around JSON payloads), 3 (a partition
// counter record and per-row tier bookkeeping) and 4 (version 5's records
// split over a chain of 64-record segment files) have no reader.
const manifestVersion = 5

// manifest is the authoritative description of a saved store directory.
type manifest struct {
	Version int             `json:"version"`
	Gen     uint64          `json:"gen"`
	Stores  []storeManifest `json:"stores"`
}

type storeManifest struct {
	Name       string         `json:"name"`
	Partitions []partManifest `json:"partitions"`
}

// partManifest describes one partition's segment file. Records and SegCRC
// are its seal: recovery requires exactly Records frames whose stored
// CRC32Cs fold to SegCRC, so a lost, added or rewritten frame is caught
// wherever it sits.
type partManifest struct {
	File    string `json:"file"`
	Records int    `json:"records"`
	SegCRC  uint32 `json:"seg_crc"`
	DWB     string `json:"dwb"`
	// SrcGen is the journal partition's content generation
	// (journal.Store.PartitionGen) captured when these files were written.
	// An incremental save reuses them verbatim while the live partition
	// still reports the same generation; 0 always forces a rewrite.
	SrcGen uint64 `json:"src_gen,omitempty"`
}

// NamedStore pairs a journal store with its directory name.
type NamedStore struct {
	Name  string
	Store *journal.Store
}

// SaveOptions tune persistence.
type SaveOptions struct {
	// Deprecated: ignored. A partition is always one segment file; the
	// field remains only for callers that still name it.
	RecordsPerSegment int
	// Incremental reuses the previous generation's partition files for every
	// partition whose content generation has not moved since they were
	// written, rewriting only dirtied partitions. The new manifest stitches
	// reused and rewritten partitions together; recovery needs no special
	// handling because it always follows manifest paths. False (the zero
	// value) preserves the original rewrite-everything behavior.
	Incremental bool
}

// partitionIntact reports whether every file a reusable partition manifest
// references still exists on disk.
func partitionIntact(dir string, pm partManifest) bool {
	if _, err := os.Stat(filepath.Join(dir, pm.File)); err != nil {
		return false
	}
	if pm.DWB != "" {
		if _, err := os.Stat(filepath.Join(dir, pm.DWB)); err != nil {
			return false
		}
	}
	return true
}

// Save persists the stores and checkpoint blob under dir as a new
// generation. Everything is written via temp-file + rename, manifest last.
func Save(dir string, stores []NamedStore, checkpoint []byte, opts SaveOptions) error {
	var old *manifest
	if m, err := readManifest(dir); err == nil {
		old = m
	}
	gen := uint64(1)
	if old != nil {
		gen = old.Gen + 1
	}
	man := manifest{Version: manifestVersion, Gen: gen}
	live := map[string]bool{} // directories the live manifest names
	if old != nil {
		old.files(func(_, rel string) { live[filepath.Dir(rel)] = true })
	}

	for _, ns := range stores {
		// An incremental save may reuse the previous generation's partition
		// manifests, but only when the directory layout still lines up.
		var oldParts []partManifest
		if opts.Incremental && old != nil {
			for _, osm := range old.Stores {
				if osm.Name == ns.Name && len(osm.Partitions) == ns.Store.Partitions() {
					oldParts = osm.Partitions
				}
			}
		}
		sm := storeManifest{Name: ns.Name}
		for pi := 0; pi < ns.Store.Partitions(); pi++ {
			// Capture the generation before dumping: an append landing in
			// between makes the dump newer than the recorded generation, so
			// the next incremental save conservatively rewrites.
			srcGen := ns.Store.PartitionGen(pi)
			if oldParts != nil {
				if opm := oldParts[pi]; opm.SrcGen != 0 && opm.SrcGen == srcGen &&
					partitionIntact(dir, opm) {
					sm.Partitions = append(sm.Partitions, opm)
					continue
				}
			}
			recs := encodePartition(ns.Store.DumpPartition(pi))
			partRel := filepath.Join("stores", ns.Name, fmt.Sprintf("p%04d", pi))
			if live[partRel] {
				partRel = filepath.Join("stores", ns.Name, fmt.Sprintf("q%04d", pi))
			}
			if err := os.MkdirAll(filepath.Join(dir, partRel), 0o755); err != nil {
				return fmt.Errorf("durable: save %s: %w", partRel, err)
			}
			b := newSegment(KindJournal, uint32(pi))
			for _, r := range recs {
				b.append(r)
			}
			pm := partManifest{File: filepath.Join(partRel, "records.seg"),
				Records: len(recs), SegCRC: segCRC(b.crcs), SrcGen: srcGen}
			if err := writeFileAtomic(filepath.Join(dir, pm.File), b.bytes(false)); err != nil {
				return fmt.Errorf("durable: save %s: %w", pm.File, err)
			}
			if len(recs) > 0 {
				// Doublewrite the tail record so a torn final append is
				// repairable without byte drift. An empty partition has no
				// record to cover.
				pm.DWB = filepath.Join(partRel, "tail.dwb")
				tail := buildSingleRecord(KindDWB, uint32(pi), recs[len(recs)-1])
				if err := writeFileAtomic(filepath.Join(dir, pm.DWB), tail); err != nil {
					return fmt.Errorf("durable: save %s: %w", pm.DWB, err)
				}
			}
			sm.Partitions = append(sm.Partitions, pm)
		}
		man.Stores = append(man.Stores, sm)
	}

	if err := os.MkdirAll(filepath.Join(dir, "checkpoint"), 0o755); err != nil {
		return fmt.Errorf("durable: save checkpoint dir: %w", err)
	}
	cpSeg := buildSingleRecord(KindCheckpoint, 0, checkpoint)
	for _, mirror := range checkpointMirrors {
		p := filepath.Join(dir, checkpointFile(gen, mirror))
		if err := writeFileAtomic(p, cpSeg); err != nil {
			return fmt.Errorf("durable: save checkpoint %s: %w", p, err)
		}
	}

	mb, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("durable: manifest marshal: %w", err)
	}
	mseg := buildSingleRecord(KindManifest, 0, mb)
	if err := writeFileAtomic(filepath.Join(dir, "MANIFEST.bak"), mseg); err != nil {
		return fmt.Errorf("durable: save MANIFEST.bak: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(dir, "MANIFEST"), mseg); err != nil {
		return fmt.Errorf("durable: save MANIFEST: %w", err)
	}
	return sweep(dir, &man)
}

// sweep removes everything under stores/ and checkpoint/ that man does not
// name: superseded partitions and checkpoints, and whatever a failed save
// left behind. Only after the MANIFEST rename above are they unreachable;
// until then a crash recovers through the old MANIFEST, which names them.
func sweep(dir string, man *manifest) error {
	keep := map[string]bool{}
	man.files(func(_, rel string) {
		for p := rel; p != "."; p = filepath.Dir(p) {
			keep[p] = true
		}
	})
	for _, top := range []string{"stores", "checkpoint"} {
		err := filepath.WalkDir(filepath.Join(dir, top), func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(dir, p)
			if err != nil || keep[rel] {
				return err
			}
			if err := os.RemoveAll(p); err != nil || !d.IsDir() {
				return err
			}
			return filepath.SkipDir
		})
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("durable: remove superseded files: %w", err)
		}
	}
	return nil
}

// files calls fn with every file man names and its owner: each store's
// partition files and doublewrite sidecars, then both checkpoint mirrors
// under "checkpoint".
func (man *manifest) files(fn func(owner, rel string)) {
	for _, sm := range man.Stores {
		for _, pm := range sm.Partitions {
			fn(sm.Name, pm.File)
			if pm.DWB != "" {
				fn(sm.Name, pm.DWB)
			}
		}
	}
	for _, mirror := range checkpointMirrors {
		fn("checkpoint", checkpointFile(man.Gen, mirror))
	}
}

// SegmentFiles lists one store's segment files in the generation saved
// under dir, relative to dir: one per partition, in partition order.
func SegmentFiles(dir, store string) ([]string, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	man.files(func(owner, rel string) {
		if owner == store && filepath.Ext(rel) == ".seg" {
			out = append(out, rel)
		}
	})
	return out, nil
}

// checkpointMirrors are the two copies a generation's checkpoint is kept
// in: "a" is read first, "b" is the fallback.
var checkpointMirrors = []string{"a", "b"}

// checkpointFile is the store-relative path of one mirror of generation
// gen's checkpoint.
func checkpointFile(gen uint64, mirror string) string {
	return filepath.Join("checkpoint", fmt.Sprintf("cp-%06d.%s", gen, mirror))
}

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readManifest(dir string) (*manifest, error) {
	var lastErr error
	for _, name := range []string{"MANIFEST", "MANIFEST.bak"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			lastErr = err
			continue
		}
		payload, err := decodeSingleRecord(data, KindManifest)
		if err != nil {
			lastErr = fmt.Errorf("%s: %w", name, err)
			continue
		}
		var m manifest
		if err := json.Unmarshal(payload, &m); err != nil {
			lastErr = fmt.Errorf("%s: %w", name, err)
			continue
		}
		if m.Version != manifestVersion {
			lastErr = fmt.Errorf("%s: %w: store format version %d, want %d",
				name, ErrBadHeader, m.Version, manifestVersion)
			continue
		}
		return &m, nil
	}
	return nil, fmt.Errorf("durable: no readable manifest in %s: %w", dir, lastErr)
}

// RecoveryReport describes everything recovery detected and did.
type RecoveryReport struct {
	// Gen is the generation that was loaded.
	Gen uint64 `json:"gen"`
	// Findings lists each detected fault with its outcome.
	Findings []Finding `json:"findings,omitempty"`
	// Quarantined maps store name -> partitions recovery gave up on.
	Quarantined map[string][]int `json:"quarantined,omitempty"`
}

// Clean reports whether recovery saw a fully healthy store.
func (r *RecoveryReport) Clean() bool { return len(r.Findings) == 0 }

// LoadOptions configure recovery.
type LoadOptions struct {
	// Rebuild maps store name -> snapshot reconstructor for CRC-proven
	// snapshot repair; stores without one quarantine on snapshot corruption.
	Rebuild map[string]SnapshotRebuilder
	// Metrics receives recovery counters; a fresh set is created when nil.
	Metrics *Metrics
}

// Result is a recovered store directory.
type Result struct {
	Stores     map[string]*journal.Store
	Checkpoint []byte
	Report     *RecoveryReport
	Metrics    *Metrics
}

// repairAction is a pending on-disk fix fsck -repair can apply.
type repairAction struct {
	Path string
	Data []byte
}

// loader carries recovery state across one Load/Fsck pass.
type loader struct {
	dir     string
	man     *manifest
	metrics *Metrics
	rebuild map[string]SnapshotRebuilder
	report  *RecoveryReport
	repairs []repairAction
}

// Load recovers the stores and checkpoint saved under dir, detecting and
// where possible repairing corruption. Unrecoverable partitions come back
// empty and are listed in Report.Quarantined — degraded mode is the
// caller's policy.
func Load(dir string, opts LoadOptions) (*Result, error) {
	l, err := newLoader(dir, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Stores:  make(map[string]*journal.Store, len(l.man.Stores)),
		Report:  l.report,
		Metrics: l.metrics,
	}
	for _, sm := range l.man.Stores {
		st := journal.NewPartitioned(len(sm.Partitions))
		for pi, pm := range sm.Partitions {
			dump, ok := l.recoverPartition(sm.Name, pi, pm)
			if !ok {
				l.report.Quarantined[sm.Name] = append(l.report.Quarantined[sm.Name], pi)
				continue
			}
			if err := st.RestorePartition(pi, dump); err != nil {
				return nil, fmt.Errorf("durable: restore %s/p%04d: %w", sm.Name, pi, err)
			}
		}
		res.Stores[sm.Name] = st
	}
	cp, err := l.recoverCheckpoint()
	if err != nil {
		return nil, err
	}
	res.Checkpoint = cp
	return res, nil
}

func newLoader(dir string, opts LoadOptions) (*loader, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	m := opts.Metrics
	if m == nil {
		m = NewMetrics()
	}
	return &loader{
		dir:     dir,
		man:     man,
		metrics: m,
		rebuild: opts.Rebuild,
		report:  &RecoveryReport{Gen: man.Gen, Quarantined: make(map[string][]int)},
	}, nil
}

func (l *loader) finding(f Finding) { l.report.Findings = append(l.report.Findings, f) }

// recoverPartition reads, verifies, and decodes one partition's segment
// file. ok=false means the partition is quarantined; every fault is logged
// as a Finding either way. Fixes fsck -repair may apply are queued only for
// a partition that recovers.
func (l *loader) recoverPartition(store string, pi int, pm partManifest) (journal.PartitionDump, bool) {
	quarantine := func(f Finding) (journal.PartitionDump, bool) {
		f.Store, f.Partition, f.File, f.Action = store, pi, pm.File, ActionQuarantined
		l.finding(f)
		l.metrics.PartitionsQuarantined.Inc()
		return journal.PartitionDump{}, false
	}

	// Frames decoded below alias data, and the restored journal keeps it.
	data, err := os.ReadFile(filepath.Join(l.dir, pm.File))
	if err != nil {
		return quarantine(Finding{Record: -1, Offset: -1, Fault: FaultMissing, Detail: err.Error()})
	}
	scan, err := scanSegment(data)
	if err != nil {
		return quarantine(Finding{Record: -1, Offset: -1, Fault: FaultBadHeader, Detail: err.Error()})
	}
	if scan.Kind != KindJournal || scan.Partition != uint32(pi) {
		return quarantine(Finding{Record: -1, Offset: -1,
			Fault: FaultBadHeader, Detail: "segment labeled for a different store slot"})
	}

	// The tail record is the only one a torn write can hit.
	frames := scan.Frames
	tailBroken := scan.Torn
	if !tailBroken && len(frames) == pm.Records && pm.Records > 0 && !frames[len(frames)-1].CRCOK {
		// The tail record was overwritten in place rather than cut short.
		tailBroken = true
		frames = frames[:len(frames)-1]
	}
	if !tailBroken && len(frames) == pm.Records-1 {
		// The tail record was lost to a cut exactly on the frame boundary —
		// no torn bytes remain, but the doublewrite sidecar still covers it.
		tailBroken = true
	}
	var fixed []byte // the repaired file, once a fix is needed
	switch {
	case tailBroken:
		if missing := pm.Records - len(frames); missing != 1 {
			return quarantine(Finding{Record: len(frames), Offset: scan.TornOffset,
				Fault:  FaultTruncated,
				Detail: fmt.Sprintf("torn write lost %d records; doublewrite covers 1", missing)})
		}
		restored, rerr := l.restoreTail(pm, frames)
		if rerr != nil {
			return quarantine(Finding{Record: len(frames), Offset: scan.TornOffset,
				Fault: FaultTornTail, Detail: rerr.Error()})
		}
		l.metrics.TailsTruncated.Inc()
		l.finding(Finding{Store: store, Partition: pi, File: pm.File,
			Record: len(frames), Offset: scan.TornOffset,
			Fault: FaultTornTail, Action: ActionRestoredTail,
			Detail: "truncated to last valid record; tail restored from doublewrite buffer"})
		// Corrected file: the intact prefix plus the re-framed tail record.
		end := int64(headerSize)
		if n := len(frames); n > 0 {
			end = frames[n-1].PayloadOff + int64(len(frames[n-1].Payload))
		}
		var frame segmentBuilder
		frame.append(restored)
		fixed = append(data[:end:end], frame.buf...)
		frames = append(frames[:len(frames):len(frames)], Frame{Offset: -1, PayloadOff: -1,
			Payload: restored, StoredCRC: frame.crcs[0], CRCOK: true})
	case len(frames) != pm.Records:
		return quarantine(Finding{Record: len(frames), Offset: -1,
			Fault:  FaultTruncated,
			Detail: fmt.Sprintf("%d records on disk, manifest says %d", len(frames), pm.Records)})
	case segCRC(storedCRCs(frames)) != pm.SegCRC:
		return quarantine(Finding{Record: -1, Offset: -1,
			Fault: FaultChecksum, Detail: "frame checksums disagree with the manifest's segment checksum"})
	}

	// Decode the record stream, attempting CRC-proven snapshot repair at
	// each corrupt record.
	pd := &partitionDecoder{}
	rebuild := l.rebuild[store]
	for i, fr := range frames {
		payload := fr.Payload
		if !fr.CRCOK {
			l.metrics.ChecksumFailures.Inc()
			cand, repaired := pd.tryRepair(fr.StoredCRC, rebuild)
			if !repaired {
				return quarantine(Finding{Record: i, Offset: fr.Offset,
					Fault: FaultChecksum, Detail: "record failed CRC32C and could not be reconstructed"})
			}
			l.metrics.SnapshotsRebuilt.Inc()
			l.finding(Finding{Store: store, Partition: pi, File: pm.File,
				Record: i, Offset: fr.Offset,
				Fault: FaultChecksum, Action: ActionRebuiltSnapshot,
				Detail: "snapshot record reconstructed by replay; CRC32C proves byte-exact"})
			if len(cand) == len(payload) {
				if fixed == nil {
					fixed = bytes.Clone(data)
				}
				copy(fixed[fr.PayloadOff:], cand)
			}
			payload = cand
		} else {
			l.metrics.RecordsVerified.Inc()
		}
		if err := pd.next(payload); err != nil {
			return quarantine(Finding{Record: i, Offset: fr.Offset,
				Fault: FaultDecode, Detail: err.Error()})
		}
	}
	dump, err := pd.finish()
	if err != nil {
		return quarantine(Finding{Record: -1, Offset: -1, Fault: FaultDecode, Detail: err.Error()})
	}
	if fixed != nil {
		l.repairs = append(l.repairs, repairAction{Path: filepath.Join(l.dir, pm.File), Data: fixed})
	}
	return dump, true
}

// storedCRCs lists the CRC32C each frame claims, the input to segCRC.
func storedCRCs(frames []Frame) []uint32 {
	crcs := make([]uint32, len(frames))
	for i, fr := range frames {
		crcs[i] = fr.StoredCRC
	}
	return crcs
}

// restoreTail reads the doublewrite sidecar and returns its record once the
// valid frames plus that record fold to the manifest's segment checksum.
func (l *loader) restoreTail(pm partManifest, valid []Frame) ([]byte, error) {
	if pm.DWB == "" {
		return nil, fmt.Errorf("no doublewrite sidecar")
	}
	raw, err := os.ReadFile(filepath.Join(l.dir, pm.DWB))
	if err != nil {
		return nil, fmt.Errorf("doublewrite sidecar: %w", err)
	}
	payload, err := decodeSingleRecord(raw, KindDWB)
	if err != nil {
		return nil, fmt.Errorf("doublewrite sidecar: %w", err)
	}
	if segCRC(append(storedCRCs(valid), Checksum(payload))) != pm.SegCRC {
		return nil, fmt.Errorf("doublewrite record does not complete the segment checksum")
	}
	return payload, nil
}

// recoverCheckpoint loads the manifest generation's checkpoint, falling back
// to the mirror copy on corruption.
func (l *loader) recoverCheckpoint() ([]byte, error) {
	gen := l.man.Gen
	aRel, bRel := checkpointFile(gen, "a"), checkpointFile(gen, "b")
	primary, perr := readCheckpointFile(filepath.Join(l.dir, aRel))
	if perr == nil {
		return primary, nil
	}
	l.metrics.CheckpointFallbacks.Inc()
	l.finding(Finding{Store: "checkpoint", Partition: -1, File: aRel,
		Record: 0, Offset: -1,
		Fault: FaultCheckpoint, Action: ActionFellBack, Detail: perr.Error()})
	mirror, merr := readCheckpointFile(filepath.Join(l.dir, bRel))
	if merr != nil {
		return nil, fmt.Errorf("durable: checkpoint generation %d unrecoverable: primary %s: %v; mirror %s: %w",
			gen, aRel, perr, bRel, merr)
	}
	if raw, err := os.ReadFile(filepath.Join(l.dir, bRel)); err == nil {
		l.repairs = append(l.repairs, repairAction{Path: filepath.Join(l.dir, aRel), Data: raw})
	}
	return mirror, nil
}

func readCheckpointFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeSingleRecord(data, KindCheckpoint)
}
