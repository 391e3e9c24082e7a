package core

import (
	"slices"
	"sort"
	"sync"
	"time"

	"censysmap/internal/x509lite"
)

// CertRecord is the stored state of one certificate (paper §4.4): parsed
// fields plus validation, lint findings, and revocation status, which are
// recomputed daily because they change with time even when the certificate
// does not.
type CertRecord struct {
	Cert        *x509lite.Certificate
	Fingerprint string
	// Sources records how the certificate was seen: "scan", "ct".
	Sources   []string
	FirstSeen time.Time
	// Status is the latest validation outcome.
	Status x509lite.ValidationStatus
	// LintFindings are stable lint identifiers.
	LintFindings  []string
	LastValidated time.Time
}

// CRLSource wraps a fetched CRL.
type CRLSource struct {
	CRL *x509lite.CRL
}

// CertStore indexes every certificate the pipeline has observed, from TLS
// handshakes and CT log polling.
type CertStore struct {
	mu    sync.RWMutex
	roots *x509lite.RootStore
	byFP  map[string]*CertRecord
}

// NewCertStore creates an empty store validating against roots.
func NewCertStore(roots *x509lite.RootStore) *CertStore {
	return &CertStore{roots: roots, byFP: make(map[string]*CertRecord)}
}

// ObserveDER ingests an encoded certificate a handshake presented under
// fingerprint (the SHA-256 of der). The blob is parsed only when the
// fingerprint is new; a stored certificate just accrues the source.
func (cs *CertStore) ObserveDER(der []byte, fingerprint, source string, now time.Time) error {
	cs.mu.Lock()
	if rec := cs.byFP[fingerprint]; rec != nil {
		rec.addSource(source)
		cs.mu.Unlock()
		return nil
	}
	cs.mu.Unlock()
	cert, err := x509lite.Parse(der)
	if err != nil {
		return err
	}
	cs.Observe(cert, source, now)
	return nil
}

// Observe ingests a parsed certificate: new certificates are validated and
// linted immediately; known ones just accrue sources.
func (cs *CertStore) Observe(cert *x509lite.Certificate, source string, now time.Time) *CertRecord {
	fp := cert.FingerprintSHA256()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	rec := cs.byFP[fp]
	if rec == nil {
		rec = &CertRecord{
			Cert: cert, Fingerprint: fp, FirstSeen: now,
			Status:        x509lite.Validate(cert, cs.roots, nil, now),
			LintFindings:  x509lite.Lint(cert),
			LastValidated: now,
		}
		cs.byFP[fp] = rec
	}
	rec.addSource(source)
	return rec
}

// addSource records source on the certificate once. Callers hold the
// store's lock.
func (rec *CertRecord) addSource(source string) {
	if !slices.Contains(rec.Sources, source) {
		rec.Sources = append(rec.Sources, source)
		sort.Strings(rec.Sources)
	}
}

// RevalidateAll recomputes validation and revocation for every certificate
// against the current CRLs — the daily refresh of §4.6.
func (cs *CertStore) RevalidateAll(crls []*CRLSource, now time.Time) int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	changed := 0
	for _, rec := range cs.byFP {
		var crl *x509lite.CRL
		for _, src := range crls {
			if src.CRL != nil && src.CRL.Issuer == rec.Cert.Issuer {
				crl = src.CRL
				break
			}
		}
		status := x509lite.Validate(rec.Cert, cs.roots, crl, now)
		if status != rec.Status {
			changed++
		}
		rec.Status = status
		rec.LastValidated = now
	}
	return changed
}

// Len reports the number of stored certificates.
func (cs *CertStore) Len() int {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	return len(cs.byFP)
}
