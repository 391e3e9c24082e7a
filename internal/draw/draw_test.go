package draw

import (
	"net/netip"
	"testing"
)

func TestNet24(t *testing.T) {
	for in, want := range map[string]netip.Addr{
		"10.1.2.3":        netip.MustParseAddr("10.1.2.0"),
		"::ffff:10.1.2.3": netip.MustParseAddr("10.1.2.0"),
		"2001:db8::1":     {},
		"fe80::1%eth0":    {},
		"255.255.255.255": netip.MustParseAddr("255.255.255.0"),
	} {
		if got := Net24(netip.MustParseAddr(in)); got != want {
			t.Errorf("Net24(%s) = %v, want %v", in, got, want)
		}
	}
}

// TestFrozen pins one value of each draw function: every dataset, journal
// and fault schedule in the repo is a function of them.
func TestFrozen(t *testing.T) {
	if got, want := Mix(1, 2, 3), uint64(0x7136b9a56507c163); got != want {
		t.Fatalf("Mix(1, 2, 3) = %#x, want %#x", got, want)
	}
	if got, want := StrHash("censys"), uint64(0x562204c4cea6048a); got != want {
		t.Fatalf("StrHash(censys) = %#x, want %#x", got, want)
	}
	a := netip.MustParseAddr("10.1.2.3")
	if AddrU32(a) != 0x0A010203 || U32Addr(0x0A010203) != a {
		t.Fatalf("AddrU32/U32Addr do not round-trip %v", a)
	}
	if f := Frac(^uint64(0)); f >= 1 || Frac(0) != 0 {
		t.Fatalf("Frac leaves [0, 1): %v", f)
	}
}
