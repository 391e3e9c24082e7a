package x509lite

import (
	"fmt"
	"time"
)

// CTEntry is one row of a certificate transparency log.
type CTEntry struct {
	Index     uint64
	Timestamp time.Time
	Cert      *Certificate
}

// CTLog is an append-only public certificate log that the pipeline polls for
// new certificates — its main source of web-property names. The zero value
// is an empty log.
type CTLog struct {
	entries []CTEntry
}

// Append adds a certificate at the given (submission) time, returning its
// index. Appends must be time-ordered.
func (l *CTLog) Append(cert *Certificate, at time.Time) (uint64, error) {
	if n := len(l.entries); n > 0 && at.Before(l.entries[n-1].Timestamp) {
		return 0, fmt.Errorf("x509lite: CT append at %v precedes log head %v", at, l.entries[n-1].Timestamp)
	}
	idx := uint64(len(l.entries))
	l.entries = append(l.entries, CTEntry{Index: idx, Timestamp: at, Cert: cert})
	return idx, nil
}

// HeadTime returns the timestamp of the newest entry (zero for an empty log).
// Submitters use it to clamp backdated submissions to the log head.
func (l *CTLog) HeadTime() time.Time {
	if len(l.entries) == 0 {
		return time.Time{}
	}
	return l.entries[len(l.entries)-1].Timestamp
}

// Entries returns entries with Index >= from, up to max (0 = no limit).
// This is the polling interface the pipeline consumes.
func (l *CTLog) Entries(from uint64, max int) []CTEntry {
	if from >= uint64(len(l.entries)) {
		return nil
	}
	out := l.entries[from:]
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}
