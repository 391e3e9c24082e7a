package main

import "sort"

// refNominalSec is what one reference-kernel run takes on the declared
// machine (README.md, "Declared machine"). Every wall-clock metric is scaled
// by refNominalSec / (the kernel's time measured around it), so the unit
// stays seconds on that machine while per-run speed drift of a shared VM
// cancels out. Changing this constant rescales every wall-clock metric.
const refNominalSec = 0.064

const (
	refTableWords = 2 << 20 // 16 MB of uint64: larger than any cache here
	refWalkSteps  = 400_000 // dependent loads, so the walk is latency-bound
	refSortLen    = 300_000
)

// refKernel is a fixed amount of memory-bound and branch-bound work that
// allocates nothing after construction, so running it never moves the
// program's GC clock.
type refKernel struct {
	table   []uint64
	vals    []int
	scratch []int
	sink    uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{
		table:   make([]uint64, refTableWords),
		vals:    make([]int, refSortLen),
		scratch: make([]int, refSortLen),
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range k.table {
		x = xorshift(x)
		k.table[i] = x
	}
	for i := range k.vals {
		x = xorshift(x)
		k.vals[i] = int(x >> 1)
	}
	k.run() // fault the pages in before anything is timed
	return k
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// run executes the kernel once and returns its wall time in seconds. A nil
// kernel does no work and reads the declared machine's time, so nothing is
// corrected: the unit tests run without one.
func (k *refKernel) run() float64 {
	if k == nil {
		return refNominalSec
	}
	t0 := now()
	x := uint64(88172645463325252)
	for i := 0; i < refWalkSteps; i++ {
		x = xorshift(x) ^ k.table[x%refTableWords]
	}
	copy(k.scratch, k.vals)
	sort.Ints(k.scratch)
	k.sink += x + uint64(k.scratch[refSortLen/2])
	return now().Sub(t0).Seconds()
}

// speedFactor is REF_NOMINAL·n / Σref: below 1 when the machine ran slower
// than the declared one during the phase the refs bracket.
func speedFactor(refs []float64) float64 {
	sum := 0.0
	for _, r := range refs {
		sum += r
	}
	if sum <= 0 {
		return 1
	}
	return refNominalSec * float64(len(refs)) / sum
}
