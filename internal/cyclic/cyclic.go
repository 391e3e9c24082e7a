// Package cyclic implements ZMap-style pseudorandom address-space iteration.
//
// A scan of n targets is performed by iterating the multiplicative group of
// integers modulo a prime p > n. The group is cyclic, so repeatedly
// multiplying by a generator g visits every element of [1, p-1] exactly once
// in a pseudorandom order; elements larger than n are skipped. This gives the
// two properties Internet-wide scanning needs: complete coverage with no
// repeats, and probes spread uniformly across networks and time so no single
// destination network sees a burst (Durumeric et al., USENIX Security 2013).
//
// Cycles are cheap to shard: shard i of m iterates x, x*g^m, x*(g^m)^2, ...
// starting from g^i, partitioning the space across scanning processes with no
// coordination.
package cyclic

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrEmptySpace is returned when a cycle over zero elements is requested.
var ErrEmptySpace = errors.New("cyclic: empty target space")

// NameSeed seeds a sweep order from its scan class's name. It is FNV-1a with
// a non-standard offset basis: the constant is draw.StrHash's with its last
// digit dropped. That is not a draw and must not be "fixed" or folded into
// draw.StrHash — the value it yields decides the order every address is
// probed in, so changing it changes every dataset and journal.
func NameSeed(name string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// mulmod returns (a*b) mod m without overflow for any 64-bit operands. It
// divides, so only construction uses it; Next steps with shoupMul.
func mulmod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi%m, lo, m)
	return rem
}

// powmod returns (b^e) mod m.
func powmod(b, e, m uint64) uint64 {
	result := uint64(1 % m)
	b %= m
	for e > 0 {
		if e&1 == 1 {
			result = mulmod(result, b, m)
		}
		b = mulmod(b, b, m)
		e >>= 1
	}
	return result
}

// isPrime reports whether n is prime using a deterministic Miller-Rabin test
// valid for all 64-bit integers.
func isPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n == p {
			return true
		}
		if n%p == 0 {
			return false
		}
	}
	d := n - 1
	r := 0
	for d&1 == 0 {
		d >>= 1
		r++
	}
	// These witnesses are sufficient for all n < 2^64.
	for _, a := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		x := powmod(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		composite := true
		for i := 0; i < r-1; i++ {
			x = mulmod(x, x, n)
			if x == n-1 {
				composite = false
				break
			}
		}
		if composite {
			return false
		}
	}
	return true
}

// nextPrime returns the smallest prime >= n.
func nextPrime(n uint64) uint64 {
	if n <= 2 {
		return 2
	}
	if n&1 == 0 {
		n++
	}
	for !isPrime(n) {
		n += 2
	}
	return n
}

// factorize returns the distinct prime factors of n by trial division. It is
// only used on p-1 for scan-space-sized primes, where it completes quickly.
func factorize(n uint64) []uint64 {
	var fs []uint64
	for _, p := range []uint64{2, 3} {
		if n%p == 0 {
			fs = append(fs, p)
			for n%p == 0 {
				n /= p
			}
		}
	}
	for d := uint64(5); d*d <= n; d += 2 {
		if n%d == 0 {
			fs = append(fs, d)
			for n%d == 0 {
				n /= d
			}
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	return fs
}

// isGenerator reports whether g generates the multiplicative group mod prime
// p, given the distinct prime factors of p-1.
func isGenerator(g, p uint64, factors []uint64) bool {
	if g%p == 0 {
		return false
	}
	for _, q := range factors {
		if powmod(g, (p-1)/q, p) == 1 {
			return false
		}
	}
	return true
}

// shoup returns Shoup's precomputed quotient ⌊w·2⁶⁴/p⌋ for multiplying by a
// fixed w < p modulo p.
func shoup(w, p uint64) uint64 {
	q, _ := bits.Div64(w, 0, p)
	return q
}

// shoupMul returns (x*w) mod p for x < p < 2⁶³, given wq = shoup(w, p): the
// high word of x·wq underestimates ⌊x·w/p⌋ by at most one, so the remainder
// it leaves, computed mod 2⁶⁴, is below 2p and one conditional subtract
// finishes it. One multiply-high and two low multiplies; no division.
func shoupMul(x, w, wq, p uint64) uint64 {
	q, _ := bits.Mul64(x, wq)
	r := x*w - q*p
	if r >= p {
		r -= p
	}
	return r
}

// Cycle iterates a target space of size N in pseudorandom order.
type Cycle struct {
	n       uint64 // space size; emitted values are in [0, n)
	p       uint64 // prime > n
	start   uint64 // first group element
	cur     uint64
	stride  uint64 // multiplier per step (g, or g^m when sharded)
	strideQ uint64 // shoup(stride, p), so Next never divides
	emitted uint64 // values emitted so far
	steps   uint64 // group steps taken (for skip accounting)
	maxStep uint64 // group steps before the cycle is exhausted
}

// New returns a cycle over [0, n) whose visit order is determined by seed.
// Different seeds give different generators and starting points.
func New(n uint64, seed uint64) (*Cycle, error) {
	return NewShard(n, seed, 0, 1)
}

// NewShard returns shard `shard` of `shards` of the cycle over [0, n).
// All shards with the same n and seed jointly emit every element of [0, n)
// exactly once. shard must be in [0, shards).
func NewShard(n uint64, seed uint64, shard, shards int) (*Cycle, error) {
	if n == 0 {
		return nil, ErrEmptySpace
	}
	if shards <= 0 || shard < 0 || shard >= shards {
		return nil, fmt.Errorf("cyclic: invalid shard %d of %d", shard, shards)
	}
	if n >= 1<<62 {
		return nil, fmt.Errorf("cyclic: space size %d too large", n)
	}
	if n == 1 {
		// The group mod 2 is trivial; emit the single element directly.
		c := &Cycle{n: 1, p: 2, start: 1, cur: 1, stride: 1, strideQ: shoup(1, 2)}
		if shard == 0 {
			c.maxStep = 1
		}
		return c, nil
	}
	p := nextPrime(n + 1)
	factors := factorize(p - 1)
	// Deterministically derive a generator from the seed: probe candidates
	// starting at a seed-derived offset.
	g := uint64(0)
	for cand := 2 + seed%(p-2); ; cand++ {
		c := cand%(p-1) + 1
		if c < 2 {
			continue
		}
		if isGenerator(c, p, factors) {
			g = c
			break
		}
	}
	// Starting element: g^(seed mod (p-1) + 1) so distinct seeds start at
	// distinct group elements, then offset by the shard index.
	exp := seed%(p-1) + 1
	start := powmod(g, exp, p)
	for s := 0; s < shard; s++ {
		start = mulmod(start, g, p)
	}
	stride := powmod(g, uint64(shards), p)

	// Group order is p-1; shard s visits ceil((p-1-s)/shards) elements.
	order := p - 1
	maxStep := order / uint64(shards)
	if uint64(shard) < order%uint64(shards) {
		maxStep++
	}
	return &Cycle{n: n, p: p, start: start, cur: start, stride: stride,
		strideQ: shoup(stride, p), maxStep: maxStep}, nil
}

// Next returns the next element of [0, n) in the cycle's pseudorandom order.
// ok is false once the cycle (or this shard of it) has been exhausted.
func (c *Cycle) Next() (v uint64, ok bool) {
	for c.steps < c.maxStep {
		x := c.cur
		c.cur = shoupMul(c.cur, c.stride, c.strideQ, c.p)
		c.steps++
		if x <= c.n {
			c.emitted++
			return x - 1, true
		}
	}
	return 0, false
}

// Reset rewinds the cycle to its starting point.
func (c *Cycle) Reset() {
	c.cur = c.start
	c.steps = 0
	c.emitted = 0
}

// CycleState is the serializable iteration position of a Cycle. The group
// parameters (prime, generator, start, stride) are re-derived from the same
// (n, seed, shard, shards) on restore, so only the moving parts are captured.
type CycleState struct {
	Cur     uint64 `json:"cur"`
	Steps   uint64 `json:"steps"`
	Emitted uint64 `json:"emitted"`
}

// State captures the cycle's current position for checkpointing.
func (c *Cycle) State() CycleState {
	return CycleState{Cur: c.cur, Steps: c.steps, Emitted: c.emitted}
}

// Restore rewinds or fast-forwards the cycle to a previously captured
// position. The cycle must have been constructed with the same parameters
// (n, seed, shard, shards) that produced the state.
func (c *Cycle) Restore(st CycleState) {
	c.cur = st.Cur
	c.steps = st.Steps
	c.emitted = st.Emitted
}
