package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of an ascending slice (0 when
// empty): the smallest value with at least p% of the samples at or below it.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(asc) {
		rank = len(asc)
	}
	return asc[rank-1]
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func median(v []float64) float64 { return percentile(sorted(v), 50) }

// tailPercentiles are the candidates highestPercentile picks from, each with
// the share of samples beyond it in parts per thousand.
var tailPercentiles = []struct {
	p      float64
	beyond int
}{{50, 500}, {90, 100}, {95, 50}, {99, 10}, {99.9, 1}}

// highestPercentile is the highest tail percentile that still has at least
// ten samples beyond it; 0 when even the median does not.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, t := range tailPercentiles {
		if n*t.beyond >= 10*1000 {
			best = t.p
		}
	}
	return best
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the exclusive
// method), which is what the acceptance check is computed with. It needs at
// least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
