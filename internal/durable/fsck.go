package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// FsckOptions configure an offline verification pass.
type FsckOptions struct {
	// Rebuild supplies snapshot reconstructors per store, exactly as for
	// Load — fsck decides repairability with the same machinery recovery
	// uses.
	Rebuild map[string]SnapshotRebuilder
	// Repair applies every provable fix in place: torn tails truncated and
	// restored from the doublewrite buffer, CRC-proven snapshot rewrites,
	// and a corrupt checkpoint primary re-mirrored.
	// Quarantine-class faults are reported but never "repaired" — there is
	// nothing to restore them from.
	Repair bool
}

// FsckReport is the offline verification verdict.
type FsckReport struct {
	// Gen is the generation verified.
	Gen uint64 `json:"gen"`
	// Clean is true when no fault of any kind was found.
	Clean bool `json:"clean"`
	// RecordsVerified counts CRC-valid records across all stores.
	RecordsVerified uint64 `json:"records_verified"`
	// Bytes splits the verified generation's on-disk size by owner: one entry
	// per store (segment files plus doublewrite sidecars) and "checkpoint"
	// (both mirrors).
	Bytes map[string]int64 `json:"bytes"`
	// Findings lists each fault with the action recovery takes for it.
	Findings []Finding `json:"findings,omitempty"`
	// Quarantined maps store -> partitions recovery would give up on.
	Quarantined map[string][]int `json:"quarantined,omitempty"`
	// Repaired lists files rewritten (only when Repair was set).
	Repaired []string `json:"repaired,omitempty"`
}

// Fsck verifies (and with opts.Repair, repairs) a store directory offline.
// It runs the exact decode-and-recover path Load uses, so its verdict is the
// recovery outcome: a clean report means Load reproduces the saved state
// bit-for-bit; findings name the exact file, record, and byte offset of each
// fault.
func Fsck(dir string, opts FsckOptions) (*FsckReport, error) {
	l, err := newLoader(dir, LoadOptions{Rebuild: opts.Rebuild})
	if err != nil {
		return nil, err
	}
	for _, sm := range l.man.Stores {
		for pi, pm := range sm.Partitions {
			if _, ok := l.recoverPartition(sm.Name, pi, pm); !ok {
				l.report.Quarantined[sm.Name] = append(l.report.Quarantined[sm.Name], pi)
			}
		}
	}
	if _, err := l.recoverCheckpoint(); err != nil {
		// An unrecoverable checkpoint is a finding, not an fsck failure —
		// the operator needs the report to see it.
		l.finding(Finding{Store: "checkpoint", Partition: -1, Record: -1, Offset: -1,
			Fault: FaultCheckpoint, Action: ActionQuarantined, Detail: err.Error()})
	}

	rep := &FsckReport{
		Gen:             l.report.Gen,
		Clean:           l.report.Clean(),
		RecordsVerified: l.metrics.RecordsVerified.Value(),
		Bytes:           l.diskBytes(),
		Findings:        l.report.Findings,
		Quarantined:     l.report.Quarantined,
	}
	if opts.Repair {
		for _, ra := range l.repairs {
			if err := writeFileAtomic(ra.Path, ra.Data); err != nil {
				return rep, fmt.Errorf("durable: fsck repair %s: %w", ra.Path, err)
			}
			rep.Repaired = append(rep.Repaired, ra.Path)
		}
		sort.Strings(rep.Repaired)
	}
	return rep, nil
}

// diskBytes sizes the files the manifest's generation references; a missing
// file (already a finding) counts as zero.
func (l *loader) diskBytes() map[string]int64 {
	out := make(map[string]int64, len(l.man.Stores)+1)
	l.man.files(func(owner, rel string) {
		if fi, err := os.Stat(filepath.Join(l.dir, rel)); err == nil {
			out[owner] += fi.Size()
		}
	})
	return out
}
