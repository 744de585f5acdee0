package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending-sorted sample: the smallest value with at least p·n samples at
// or below it. An empty sample yields 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailQuantile is the highest quantile, capped at 0.99, that still has ten
// samples beyond it; below that a "p99" is one or two outliers, not a
// percentile. Samples too small to support anything above the median report
// the median.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the exclusive
// method), which is what the acceptance rule for this benchmark is written
// against: spread = (q3 − q1) ÷ median.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// sliceRates buckets completions into fixed slices of the phase and returns
// each full slice's sum ÷ slice length. Reporting the median slice keeps one
// collector pause or noisy-neighbour second from moving the run's figure.
func sliceRates(endNS []int64, weight []float64, phaseNS, sliceNS int64) []float64 {
	n := int(phaseNS / sliceNS)
	if n == 0 {
		return nil
	}
	sums := make([]float64, n)
	for i, t := range endNS {
		if b := int(t / sliceNS); t >= 0 && b < n {
			sums[b] += weight[i]
		}
	}
	sec := float64(sliceNS) / 1e9
	for i := range sums {
		sums[i] /= sec
	}
	return sums
}
