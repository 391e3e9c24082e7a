package x509lite

import (
	"testing"
	"time"
)

var t0 = time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)

func testCA() *CA {
	return NewCA("CensysMap Test Root", 1001, t0.Add(-365*24*time.Hour), 10*365*24*time.Hour)
}

func leaf(ca *CA, names ...string) *Certificate {
	return ca.Issue(Name{CommonName: names[0], Organization: "Example Corp", Country: "US"},
		names, 2001, t0, 90*24*time.Hour)
}

func TestFingerprintUnique(t *testing.T) {
	ca := testCA()
	a := leaf(ca, "a.example.com")
	b := leaf(ca, "b.example.com")
	if a.FingerprintSHA256() == b.FingerprintSHA256() {
		t.Fatal("distinct certs share fingerprint")
	}
	if len(a.FingerprintSHA256()) != 64 {
		t.Fatalf("fingerprint length = %d", len(a.FingerprintSHA256()))
	}
}

func TestCASerialIncrement(t *testing.T) {
	ca := testCA()
	a := leaf(ca, "a.example.com")
	b := leaf(ca, "b.example.com")
	if a.Serial == b.Serial {
		t.Fatal("serials collide")
	}
}

func TestCTLogAppendPoll(t *testing.T) {
	ca := testCA()
	var log CTLog
	for i := 0; i < 5; i++ {
		c := leaf(ca, "site.example.com")
		if _, err := log.Append(c, t0.Add(time.Duration(i)*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(log.Entries(0, 0)); n != 5 {
		t.Fatalf("log holds %d entries, want 5", n)
	}
	got := log.Entries(2, 0)
	if len(got) != 3 || got[0].Index != 2 {
		t.Fatalf("Entries(2) = %d entries, first %d", len(got), got[0].Index)
	}
	capped := log.Entries(0, 2)
	if len(capped) != 2 {
		t.Fatalf("Entries(0,2) = %d entries", len(capped))
	}
	if log.Entries(99, 0) != nil {
		t.Fatal("out-of-range poll returned entries")
	}
}

func TestCTLogRejectsTimeTravel(t *testing.T) {
	ca := testCA()
	var log CTLog
	if _, err := log.Append(leaf(ca, "a.example.com"), t0); err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(leaf(ca, "b.example.com"), t0.Add(-time.Hour)); err == nil {
		t.Fatal("out-of-order append accepted")
	}
}
