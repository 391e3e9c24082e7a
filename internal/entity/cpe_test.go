package entity

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// sprintfCPE is the Sprintf rendering CPE replaced, kept as its oracle.
func sprintfCPE(s Software) string {
	part := s.Part
	if part == "" {
		part = "a"
	}
	field := func(v string) string {
		if v == "" {
			return "*"
		}
		return strings.ToLower(strings.ReplaceAll(v, " ", "_"))
	}
	return fmt.Sprintf("cpe:2.3:%s:%s:%s:%s", part, field(s.Vendor), field(s.Product), field(s.Version))
}

// TestCPEMatchesSprintf holds CPE to the Sprintf oracle over random labels
// drawn from ASCII, spaces, upper- and lower-case non-ASCII runes, runes
// whose lower case has a different encoded length, and invalid bytes.
func TestCPEMatchesSprintf(t *testing.T) {
	pieces := []string{"a", "Z", "q", "M", " ", "_", "-", ".", "9", ":", "*",
		"É", "é", "Σ", "ς", "İ", "Ⱥ", "K", "Ω", "ß", "Ǆ", "世", "🙂", "�",
		"\xfa", "\xc3", "\xe2\x82", "\xff\xfe"}
	rng := rand.New(rand.NewSource(1))
	label := func() string {
		var b strings.Builder
		for n := rng.Intn(6); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	parts := []string{"", "a", "o", "h", "H"}
	for i := 0; i < 20000; i++ {
		s := Software{Part: parts[rng.Intn(len(parts))], Vendor: label(), Product: label(), Version: label()}
		if got, want := s.CPE(), sprintfCPE(s); got != want {
			t.Fatalf("CPE(%+q) = %q, want %q", s, got, want)
		}
	}
}
