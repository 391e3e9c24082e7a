package search

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"censysmap/internal/entity"
)

// certHost builds a host with one TLS service per (port, fingerprint) pair.
func certHost(addr string, certs map[uint16]string) *entity.Host {
	h := entity.NewHost(netip.MustParseAddr(addr))
	for port, fp := range certs {
		h.SetService(&entity.Service{Port: port, Transport: entity.TCP, Protocol: "HTTP",
			TLS: true, CertSHA256: fp, Verified: true})
	}
	return h
}

// TestCertLocations pins the certificate pivot read from the index's
// services.cert_sha256 postings: locators follow a certificate rotation and
// an eviction, an index built from existing hosts locates them, a service
// pending removal is not located until it is restored, and the match is
// exact — a shared token or another case finds nothing.
func TestCertLocations(t *testing.T) {
	ix := NewPartitioned(4)
	want := func(fp string, locs ...string) {
		t.Helper()
		if got := ix.CertLocations(fp); !reflect.DeepEqual(got, locs) {
			t.Fatalf("CertLocations(%q) = %q, want %q", fp, got, locs)
		}
	}
	ix.Upsert(certHost("10.0.0.1", map[uint16]string{443: "fp-one", 8443: "fp-one"}))
	ix.Upsert(certHost("10.0.0.2", map[uint16]string{443: "fp-one"}))
	ix.Upsert(certHost("10.0.0.3", map[uint16]string{443: "ab:cd"}))
	want("fp-one", "10.0.0.1 443/tcp", "10.0.0.1 8443/tcp", "10.0.0.2 443/tcp")
	want("ab:cd", "10.0.0.3 443/tcp")
	want("ab") // a token of ab:cd's value, not a fingerprint
	want("FP-ONE")
	want("")

	// Rotation moves the locator.
	ix.Upsert(certHost("10.0.0.1", map[uint16]string{443: "fp-two", 8443: "fp-one"}))
	want("fp-one", "10.0.0.1 8443/tcp", "10.0.0.2 443/tcp")
	want("fp-two", "10.0.0.1 443/tcp")

	// An index built from the hosts as they stand locates alike.
	rebuilt := NewPartitioned(2)
	rebuilt.Upsert(certHost("10.0.0.1", map[uint16]string{443: "fp-two", 8443: "fp-one"}))
	rebuilt.Upsert(certHost("10.0.0.2", map[uint16]string{443: "fp-one"}))
	if got := rebuilt.CertLocations("fp-one"); !reflect.DeepEqual(got, ix.CertLocations("fp-one")) {
		t.Fatalf("rebuilt index locates fp-one at %q", got)
	}

	// A service pending removal leaves the pivot; restored, it is back.
	pending := certHost("10.0.0.2", map[uint16]string{443: "fp-one"})
	since := time.Unix(0, 0).UTC()
	pending.Service(entity.ServiceKey{Port: 443, Transport: entity.TCP}).PendingRemovalSince = &since
	ix.Upsert(pending)
	want("fp-one", "10.0.0.1 8443/tcp")
	ix.Upsert(certHost("10.0.0.2", map[uint16]string{443: "fp-one"}))
	want("fp-one", "10.0.0.1 8443/tcp", "10.0.0.2 443/tcp")

	// Eviction clears it: the slot leaves the host, then the host the index.
	ix.Upsert(certHost("10.0.0.1", map[uint16]string{443: "fp-two"}))
	ix.Remove("10.0.0.2")
	want("fp-one")
	want("fp-two", "10.0.0.1 443/tcp")
}
