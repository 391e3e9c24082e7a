// Package draw is the one home of the seeded-draw helpers: every
// deterministic "random" decision in the repo — universe generation, the
// network path model, injected faults — is Frac(Mix(seed, tag, stable
// identifiers...)) compared to a rate, so a seed names one schedule under
// any layout. The functions are frozen: changing one changes every dataset,
// journal and fault schedule.
package draw

import "net/netip"

// Mix hashes its arguments with a splitmix64 finalizer chain.
func Mix(vals ...uint64) uint64 {
	x := uint64(0x9E3779B97F4A7C15)
	for _, v := range vals {
		x ^= v + 0x9E3779B97F4A7C15 + (x << 6) + (x >> 2)
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		x ^= x >> 31
	}
	return x
}

// Frac maps a hash to [0, 1).
func Frac(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// StrHash is FNV-1a over s: how a scanner ID or country enters a draw.
func StrHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// AddrU32 is an IPv4 address as a big-endian integer.
func AddrU32(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// U32Addr is the inverse of AddrU32.
func U32Addr(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// Net24 returns the /24 base address containing a. IPv4-mapped addresses
// count as IPv4; for anything else (the scan universe is IPv4 only) it
// returns the zero Addr.
func Net24(a netip.Addr) netip.Addr {
	a = a.Unmap()
	if !a.Is4() {
		return netip.Addr{}
	}
	b := a.As4()
	b[3] = 0
	return netip.AddrFrom4(b)
}
