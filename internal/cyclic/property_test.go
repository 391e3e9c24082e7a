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
