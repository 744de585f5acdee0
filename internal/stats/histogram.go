package stats

import (
	"math"
	"sort"
)

// Histogram is a fixed-layout log-scale histogram for positive values
// (latencies in seconds here): 40 buckets per decade across 12 decades
// starting at 1 µs. It supports streaming insertion and quantile queries
// without retaining samples, so the simulator can report latency percentiles
// over millions of requests at O(1) memory.
type Histogram struct {
	counts [histBuckets]int64
	under  int64 // below the first bucket
	over   int64 // above the last bucket
	n      int64
	sum    float64
	max    float64
}

const (
	bucketsPerDecade = 40
	decades          = 12
	histMin          = 1e-6
	histBuckets      = decades * bucketsPerDecade
)

// The bucket of x is int(math.Log10(x/histMin) * bucketsPerDecade), but Add
// does not evaluate that: it finds the bucket in two tables built from the
// formula once, at init.
//
// histEdge[i] is the smallest float64 the formula puts in bucket i or
// above, found by bisecting bit patterns (positive float64s order like their
// bits); histEdge[histBuckets] is where overflow starts. histCell maps the
// exponent and top histCellBits mantissa bits of x to the bucket of the
// smallest value with those bits. A cell spans at most log10(33/32)·40 ≈
// 0.53 buckets, so it holds at most one edge and x lands in its cell's
// bucket or the next: one table load and one compare. The test checks the
// tables against the formula at and around every edge.
const (
	histCellBits  = 5
	histCellShift = 52 - histCellBits
)

var (
	histEdge     [histBuckets + 1]float64
	histCell     []uint16
	histCellBase uint64 // cell key of histMin
)

// histBucketOf is the bucket formula the tables encode (x >= histMin).
func histBucketOf(x float64) int {
	return int(math.Log10(x/histMin) * bucketsPerDecade)
}

func init() {
	for i := range histEdge {
		// Smallest x in [histMin, 1e7] with histBucketOf(x) >= i; 1e7 lies
		// past the last bucket, so the bisection always converges.
		lo, hi := math.Float64bits(histMin), math.Float64bits(1e7)
		for lo < hi {
			mid := lo + (hi-lo)/2
			if histBucketOf(math.Float64frombits(mid)) >= i {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		histEdge[i] = math.Float64frombits(lo)
	}
	histCellBase = math.Float64bits(histMin) >> histCellShift
	last := math.Float64bits(histEdge[histBuckets]) >> histCellShift
	histCell = make([]uint16, last-histCellBase+1)
	b := 0
	for k := range histCell {
		low := max(math.Float64frombits((histCellBase+uint64(k))<<histCellShift), histMin)
		for b < histBuckets && low >= histEdge[b+1] {
			b++
		}
		histCell[k] = uint16(b)
	}
}

// Add records one value. Non-positive values land in the underflow bucket;
// +Inf and NaN in the overflow bucket.
func (h *Histogram) Add(x float64) {
	h.n++
	if x > 0 {
		h.sum += x
	}
	if x > h.max {
		h.max = x
	}
	switch b := histBucket(x); {
	case b < 0:
		h.under++
	case b == histBuckets:
		h.over++
	default:
		h.counts[b]++
	}
}

// histBucket is the bucket of x: -1 below histMin, histBuckets from the end
// of the last bucket on (and for NaN).
func histBucket(x float64) int {
	if x < histMin {
		return -1
	}
	if !(x < histEdge[histBuckets]) {
		return histBuckets
	}
	b := int(histCell[math.Float64bits(x)>>histCellShift-histCellBase])
	if x >= histEdge[b+1] {
		b++
	}
	return b
}

// N reports the number of recorded values.
func (h *Histogram) N() int64 { return h.n }

// Reset zeroes the histogram in place, so sweep workers can reuse one
// histogram per run instead of allocating a fresh bucket array.
func (h *Histogram) Reset() {
	clear(h.counts[:])
	h.under, h.over, h.n = 0, 0, 0
	h.sum, h.max = 0, 0
}

// Mean reports the arithmetic mean of recorded values.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Max reports the largest recorded value.
func (h *Histogram) Max() float64 { return h.max }

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1) with
// one-bucket (≈6 %) resolution. Zero values (underflow) count below every
// bucket.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.n)))
	if target <= h.under {
		return histMin
	}
	cum := h.under
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			// Upper edge of bucket i.
			return histMin * math.Pow(10, float64(i+1)/bucketsPerDecade)
		}
	}
	return h.max
}

// Merge adds other's contents into h.
func (h *Histogram) Merge(other *Histogram) {
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.under += other.under
	h.over += other.over
	h.n += other.n
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// QuantilesExact computes exact quantiles of a small sample slice (helper
// for tests and reports that do retain samples). xs is sorted in place.
func QuantilesExact(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	sort.Float64s(xs)
	for i, q := range qs {
		if q <= 0 {
			out[i] = xs[0]
			continue
		}
		if q >= 1 {
			out[i] = xs[len(xs)-1]
			continue
		}
		idx := int(math.Ceil(q*float64(len(xs)))) - 1
		if idx < 0 {
			idx = 0
		}
		out[i] = xs[idx]
	}
	return out
}
