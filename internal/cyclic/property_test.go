package cyclic

import (
	"encoding/json"
	"math/rand"
	"net/netip"
	"testing"
)

// TestShardedCyclePermutationProperty: for any space size (powers of two,
// primes, one-off-from-prime, and random non-round sizes), any seed, and any
// shard count, the shards of one cycle jointly emit every element of [0, n)
// exactly once. This is the property the discovery engine's coverage
// guarantee rests on.
func TestShardedCyclePermutationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC0FFEE))
	sizes := []uint64{1, 2, 3, 5, 6, 10, 31, 100, 256, 257, 1000, 4096, 4097, 9973}
	for i := 0; i < 20; i++ {
		sizes = append(sizes, 2+uint64(rng.Intn(20000)))
	}
	for _, n := range sizes {
		for trial := 0; trial < 3; trial++ {
			seed := rng.Uint64()
			shards := 1 + rng.Intn(7)
			seen := make([]uint8, n)
			var emitted uint64
			for s := 0; s < shards; s++ {
				c, err := NewShard(n, seed, s, shards)
				if err != nil {
					t.Fatalf("n=%d seed=%d shard %d/%d: %v", n, seed, s, shards, err)
				}
				for {
					v, ok := c.Next()
					if !ok {
						break
					}
					if v >= n {
						t.Fatalf("n=%d seed=%d: emitted out-of-range %d", n, seed, v)
					}
					seen[v]++
					emitted++
				}
			}
			if emitted != n {
				t.Fatalf("n=%d seed=%d shards=%d: emitted %d values", n, seed, shards, emitted)
			}
			for v := uint64(0); v < n; v++ {
				if seen[v] != 1 {
					t.Fatalf("n=%d seed=%d shards=%d: value %d seen %d times", n, seed, shards, v, seen[v])
				}
			}
		}
	}
}

// TestCycleStateRestoreResumesExactly: interrupting a cycle at any point,
// round-tripping its State through JSON, and restoring into a fresh cycle
// yields exactly the uninterrupted remainder — the property crash recovery
// of discovery positions depends on.
func TestCycleStateRestoreResumesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 2 + uint64(rng.Intn(5000))
		seed := rng.Uint64()

		c, err := New(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		var full []uint64
		for {
			v, ok := c.Next()
			if !ok {
				break
			}
			full = append(full, v)
		}

		cut := rng.Intn(len(full) + 1)
		c2, _ := New(n, seed)
		for i := 0; i < cut; i++ {
			c2.Next()
		}
		blob, err := json.Marshal(c2.State())
		if err != nil {
			t.Fatal(err)
		}
		var st CycleState
		if err := json.Unmarshal(blob, &st); err != nil {
			t.Fatal(err)
		}

		c3, _ := New(n, seed)
		c3.Restore(st)
		for i := cut; i < len(full); i++ {
			v, ok := c3.Next()
			if !ok || v != full[i] {
				t.Fatalf("n=%d seed=%d cut=%d: position %d gave (%d,%v), want %d",
					n, seed, cut, i, v, ok, full[i])
			}
		}
		if _, ok := c3.Next(); ok {
			t.Fatalf("n=%d seed=%d cut=%d: restored cycle over-emits", n, seed, cut)
		}
	}
}

// TestShardedIteratorCoversSpace: sharded iterators over an (address, port)
// space jointly visit every target exactly once, including when the host
// count is not a power of two.
func TestShardedIteratorCoversSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		hosts := 3 + uint64(rng.Intn(500))
		ports := []uint16{22, 80, 443}[:1+rng.Intn(3)]
		space, err := NewSpace(netip.MustParseAddr("10.9.0.0"), hosts, ports)
		if err != nil {
			t.Fatal(err)
		}
		seed := rng.Uint64()
		shards := 1 + rng.Intn(5)

		seen := make(map[uint64]int, space.Size())
		for s := 0; s < shards; s++ {
			it, err := NewShardedIterator(space, seed, s, shards)
			if err != nil {
				t.Fatal(err)
			}
			for {
				addr, port, ok := it.Next()
				if !ok {
					break
				}
				idx, ok := space.index(addr, port)
				if !ok {
					t.Fatalf("iterator emitted target outside space: %s:%d", addr, port)
				}
				seen[idx]++
			}
		}
		if uint64(len(seen)) != space.Size() {
			t.Fatalf("hosts=%d ports=%d shards=%d: covered %d of %d targets",
				hosts, len(ports), shards, len(seen), space.Size())
		}
		for idx, ct := range seen {
			if ct != 1 {
				t.Fatalf("target %d visited %d times", idx, ct)
			}
		}
	}
}

// TestShoupStepMatchesMulmod: the division-free step Next takes equals
// mulmod for random operands below moduli up to and past 2⁶² (a cycle's
// prime is the first one above its space size, which is below 2⁶²), and at
// the edges of each modulus.
func TestShoupStepMatchesMulmod(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5407))
	check := func(x, w, p uint64) {
		if got, want := shoupMul(x, w, shoup(w, p), p), mulmod(x, w, p); got != want {
			t.Fatalf("shoupMul(%d, %d) mod %d = %d, mulmod %d", x, w, p, got, want)
		}
	}
	mods := []uint64{2, 3, 65537, 1<<32 + 15, 1<<62 - 57, 1<<62 + 135, 1<<63 - 25}
	for i := 0; i < 200; i++ {
		mods = append(mods, 2+rng.Uint64()%(1<<62-2), 2+rng.Uint64()%(1<<32))
	}
	for _, p := range mods {
		edges := []uint64{0, 1, 2 % p, p - 2, p - 1}
		for _, x := range edges {
			for _, w := range edges {
				check(x%p, w%p, p)
			}
		}
		for i := 0; i < 500; i++ {
			check(rng.Uint64()%p, rng.Uint64()%p, p)
		}
	}
}

// TestShardedCyclesStepLikeMulmod: for every shard count m = 1…8, the
// shards of one cycle walk exactly the sequence mulmod by g^m gives from
// their start, emit a disjoint and complete cover of [0, n), and resume from
// a State captured anywhere to the same remainder.
func TestShardedCyclesStepLikeMulmod(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5408))
	for _, n := range []uint64{1, 2, 97, 256, 1000, 4096, 6143} {
		for m := 1; m <= 8; m++ {
			seed := rng.Uint64()
			seen := make([]uint8, n)
			for s := 0; s < m; s++ {
				c, err := NewShard(n, seed, s, m)
				if err != nil {
					t.Fatal(err)
				}
				var vals []uint64
				cur := c.start
				for {
					v, ok := c.Next()
					if !ok {
						break
					}
					for cur > n { // the reference walk skips what Next skips
						cur = mulmod(cur, c.stride, c.p)
					}
					if v != cur-1 {
						t.Fatalf("n=%d shard %d/%d: emitted %d, reference walk %d", n, s, m, v, cur-1)
					}
					cur = mulmod(cur, c.stride, c.p)
					seen[v]++
					vals = append(vals, v)
				}
				cut := rng.Intn(len(vals) + 1)
				c2, _ := NewShard(n, seed, s, m)
				for range cut {
					c2.Next()
				}
				st := c2.State()
				c3, _ := NewShard(n, seed, s, m)
				c3.Restore(st)
				for i := cut; i < len(vals); i++ {
					if v, ok := c3.Next(); !ok || v != vals[i] {
						t.Fatalf("n=%d shard %d/%d cut %d: restored position %d gave (%d, %v), want %d", n, s, m, cut, i, v, ok, vals[i])
					}
				}
				if _, ok := c3.Next(); ok {
					t.Fatalf("n=%d shard %d/%d: restored cycle over-emits", n, s, m)
				}
			}
			for v, ct := range seen {
				if ct != 1 {
					t.Fatalf("n=%d m=%d: value %d emitted %d times", n, m, v, ct)
				}
			}
		}
	}
}

// TestSpaceShiftMatchesDivision: a space whose host count is a power of two
// splits an index with a shift and a mask; it must map every index as the
// division does. Prefix spaces from /32 to /8, and the cloud class's space
// (cloudBlocks × 256 hosts, a power of two only sometimes).
func TestSpaceShiftMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5409))
	ports := []uint16{22, 80, 443, 8080, 65535}
	var spaces []*Space
	for bits := 8; bits <= 32; bits++ {
		s, err := NewPrefixSpace(netip.PrefixFrom(netip.MustParseAddr("10.0.0.0"), bits).Masked(), ports)
		if err != nil {
			t.Fatal(err)
		}
		if s.shift != 32-bits {
			t.Fatalf("/%d: shift %d, want %d", bits, s.shift, 32-bits)
		}
		spaces = append(spaces, s)
	}
	for _, blocks := range []uint64{1, 2, 3, 4, 6, 8, 12, 64} {
		s, err := NewSpace(netip.MustParseAddr("10.0.0.0"), blocks*256, ports)
		if err != nil {
			t.Fatal(err)
		}
		if pow2 := blocks&(blocks-1) == 0; pow2 != (s.shift >= 0) {
			t.Fatalf("%d cloud blocks: shift %d", blocks, s.shift)
		}
		spaces = append(spaces, s)
	}
	for _, s := range spaces {
		idx := []uint64{0, s.hosts - 1, s.hosts, s.Size() - 1}
		for i := 0; i < 1000; i++ {
			idx = append(idx, rng.Uint64()%s.Size())
		}
		for _, i := range idx {
			a, port := s.target(i)
			if wa, wp := s.base+uint32(i%s.hosts), s.ports[i/s.hosts]; a != wa || port != wp {
				t.Fatalf("hosts=%d index %d: (%d, %d), division gives (%d, %d)", s.hosts, i, a, port, wa, wp)
			}
		}
	}
}
