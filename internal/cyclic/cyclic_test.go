package cyclic

import (
	"testing"
	"testing/quick"
)

func TestIsPrimeKnownValues(t *testing.T) {
	primes := []uint64{2, 3, 5, 7, 11, 13, 65537, 4294967311, 1000000007}
	for _, p := range primes {
		if !isPrime(p) {
			t.Errorf("isPrime(%d) = false, want true", p)
		}
	}
	composites := []uint64{0, 1, 4, 6, 9, 15, 65536, 4294967296, 1000000008,
		3215031751} // strong pseudoprime to bases 2,3,5,7
	for _, c := range composites {
		if isPrime(c) {
			t.Errorf("isPrime(%d) = true, want false", c)
		}
	}
}

func TestNextPrime(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0, 2}, {2, 2}, {3, 3}, {4, 5}, {14, 17}, {65536, 65537},
		{100, 101}, {1 << 20, 1048583},
	}
	for _, c := range cases {
		if got := nextPrime(c.in); got != c.want {
			t.Errorf("nextPrime(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestMulmodNoOverflow(t *testing.T) {
	const m = 1<<61 - 1
	a, b := uint64(1)<<60, uint64(1)<<60+12345
	got := mulmod(a, b, m)
	// Verify via repeated squaring identity: (2^60 * (2^60+k)) mod m.
	// 2^61 ≡ 1 (mod 2^61-1), so 2^60 ≡ inverse of 2 → 2^120 = 2^(61*1+59) ≡ 2^59.
	want := powmod(2, 119, m) // 2^60 * 2^59... compute directly instead:
	want = mulmod(powmod(2, 60, m), (uint64(1)<<60+12345)%m, m)
	if got != want {
		t.Fatalf("mulmod = %d, want %d", got, want)
	}
}

func TestPowmodKnown(t *testing.T) {
	if got := powmod(2, 10, 1000); got != 24 {
		t.Fatalf("powmod(2,10,1000) = %d, want 24", got)
	}
	if got := powmod(5, 0, 7); got != 1 {
		t.Fatalf("powmod(5,0,7) = %d, want 1", got)
	}
	if got := powmod(5, 3, 1); got != 0 {
		t.Fatalf("powmod mod 1 = %d, want 0", got)
	}
}

func TestCycleFullCoverage(t *testing.T) {
	for _, n := range []uint64{1, 2, 3, 10, 100, 4096, 65536} {
		for seed := uint64(0); seed < 3; seed++ {
			c, err := New(n, seed)
			if err != nil {
				t.Fatalf("New(%d, %d): %v", n, seed, err)
			}
			seen := make([]bool, n)
			count := uint64(0)
			for {
				v, ok := c.Next()
				if !ok {
					break
				}
				if v >= n {
					t.Fatalf("n=%d seed=%d: value %d out of range", n, seed, v)
				}
				if seen[v] {
					t.Fatalf("n=%d seed=%d: value %d repeated", n, seed, v)
				}
				seen[v] = true
				count++
			}
			if count != n {
				t.Fatalf("n=%d seed=%d: emitted %d values, want %d", n, seed, count, n)
			}
		}
	}
}

func TestCycleSeedsDiffer(t *testing.T) {
	const n = 1000
	a, _ := New(n, 1)
	b, _ := New(n, 2)
	same := 0
	for i := 0; i < 100; i++ {
		va, _ := a.Next()
		vb, _ := b.Next()
		if va == vb {
			same++
		}
	}
	if same > 20 {
		t.Fatalf("seeds 1 and 2 agree on %d/100 positions; orders should differ", same)
	}
}

func TestCycleDeterministic(t *testing.T) {
	a, _ := New(5000, 42)
	b, _ := New(5000, 42)
	for i := 0; i < 5000; i++ {
		va, oka := a.Next()
		vb, okb := b.Next()
		if va != vb || oka != okb {
			t.Fatalf("same seed diverged at step %d: %d vs %d", i, va, vb)
		}
	}
}

func TestCycleReset(t *testing.T) {
	c, _ := New(100, 7)
	var first []uint64
	for i := 0; i < 10; i++ {
		v, _ := c.Next()
		first = append(first, v)
	}
	c.Reset()
	for i := 0; i < 10; i++ {
		v, _ := c.Next()
		if v != first[i] {
			t.Fatalf("after Reset, step %d = %d, want %d", i, v, first[i])
		}
	}
}

func TestShardsPartitionSpace(t *testing.T) {
	const n = 10007
	for _, shards := range []int{2, 3, 7} {
		seen := make([]int, n)
		for s := 0; s < shards; s++ {
			c, err := NewShard(n, 99, s, shards)
			if err != nil {
				t.Fatalf("NewShard: %v", err)
			}
			for {
				v, ok := c.Next()
				if !ok {
					break
				}
				seen[v]++
			}
		}
		for v, k := range seen {
			if k != 1 {
				t.Fatalf("shards=%d: value %d seen %d times, want 1", shards, v, k)
			}
		}
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(0, 1); err != ErrEmptySpace {
		t.Fatalf("New(0) err = %v, want ErrEmptySpace", err)
	}
	if _, err := NewShard(10, 1, 3, 3); err == nil {
		t.Fatal("NewShard with shard==shards should error")
	}
	if _, err := NewShard(10, 1, -1, 3); err == nil {
		t.Fatal("NewShard with negative shard should error")
	}
	if _, err := New(1<<62, 1); err == nil {
		t.Fatal("New with oversized space should error")
	}
}

func TestCoveragePropertyQuick(t *testing.T) {
	f := func(nRaw uint16, seed uint64) bool {
		n := uint64(nRaw%2000) + 1
		c, err := New(n, seed)
		if err != nil {
			return false
		}
		seen := make(map[uint64]bool, n)
		for {
			v, ok := c.Next()
			if !ok {
				break
			}
			if v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return uint64(len(seen)) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorIsPrimitiveRoot(t *testing.T) {
	c, _ := New(65536, 5)
	p, g := c.p, c.stride // an unsharded cycle steps by its generator
	if p != 65537 {
		t.Fatalf("p = %d, want 65537", p)
	}
	// g must not have order dividing (p-1)/q for any prime factor q of p-1.
	for _, q := range factorize(p - 1) {
		if powmod(g, (p-1)/q, p) == 1 {
			t.Fatalf("generator %d has small order (factor %d)", g, q)
		}
	}
}

func TestFactorize(t *testing.T) {
	cases := []struct {
		n    uint64
		want []uint64
	}{
		{2, []uint64{2}},
		{12, []uint64{2, 3}},
		{65536, []uint64{2}},
		{1048582, []uint64{2, 29, 101, 179}},
		{30, []uint64{2, 3, 5}},
	}
	for _, c := range cases {
		got := factorize(c.n)
		if len(got) != len(c.want) {
			t.Fatalf("factorize(%d) = %v, want %v", c.n, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("factorize(%d) = %v, want %v", c.n, got, c.want)
			}
		}
	}
}

// TestNameSeedPinned: the sweep seed of a class name is frozen — it decides
// every probe order, so a changed value changes every dataset.
func TestNameSeedPinned(t *testing.T) {
	if got, want := NameSeed("priority"), uint64(0x4d37eaf520bc7ccb); got != want {
		t.Fatalf("NameSeed(\"priority\") = %#x, want %#x", got, want)
	}
}
