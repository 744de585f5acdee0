package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.N() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zero-valued")
	}
}

func TestHistogramBasicQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i) / 1000) // 1ms … 1s uniform
	}
	if h.N() != 1000 {
		t.Fatalf("N = %d", h.N())
	}
	// Median ≈ 0.5 within one log-bucket (≈6%).
	med := h.Quantile(0.5)
	if med < 0.45 || med > 0.56 {
		t.Errorf("median %g, want ≈0.5", med)
	}
	p99 := h.Quantile(0.99)
	if p99 < 0.9 || p99 > 1.12 {
		t.Errorf("p99 %g, want ≈0.99", p99)
	}
	if got := h.Mean(); math.Abs(got-0.5005) > 0.001 {
		t.Errorf("mean %g", got)
	}
	if h.Max() != 1.0 {
		t.Errorf("max %g", h.Max())
	}
}

func TestHistogramUnderOverflow(t *testing.T) {
	var h Histogram
	h.Add(0)    // underflow
	h.Add(-5)   // underflow
	h.Add(1e9)  // overflow (beyond 12 decades from 1µs)
	h.Add(0.01) // normal
	if h.N() != 4 {
		t.Fatalf("N = %d", h.N())
	}
	if q := h.Quantile(0.25); q != histMin {
		t.Errorf("low quantile %g, want underflow bound %g", q, histMin)
	}
	if q := h.Quantile(1.0); q != 1e9 {
		t.Errorf("q1.0 = %g, want max", q)
	}
	// Clamped inputs.
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Error("quantile clamping broken")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 100; i++ {
		a.Add(0.001)
		b.Add(1.0)
	}
	a.Merge(&b)
	if a.N() != 200 {
		t.Fatalf("N = %d", a.N())
	}
	med := a.Quantile(0.5)
	if med > 0.002 {
		t.Errorf("median %g after merge, want ≈0.001", med)
	}
	if a.Quantile(0.99) < 0.9 {
		t.Errorf("p99 %g after merge", a.Quantile(0.99))
	}
	if a.Max() != 1.0 {
		t.Errorf("max %g", a.Max())
	}
}

// TestQuickHistogramQuantileBound: the histogram quantile is always an upper
// bound of the exact quantile and within one bucket width (6%) of it.
func TestQuickHistogramQuantileBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		xs := make([]float64, 500)
		for i := range xs {
			xs[i] = math.Exp(rng.Float64()*10 - 5) // 6.7e-3 … 148, log-uniform
			h.Add(xs[i])
		}
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
			exact := QuantilesExact(append([]float64(nil), xs...), q)[0]
			approx := h.Quantile(q)
			if approx < exact*0.999 {
				t.Errorf("seed %d q%.2f: approx %g below exact %g", seed, q, approx, exact)
				return false
			}
			if approx > exact*1.07 {
				t.Errorf("seed %d q%.2f: approx %g more than a bucket above exact %g", seed, q, approx, exact)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuantilesExact(t *testing.T) {
	if got := QuantilesExact(nil, 0.5); got[0] != 0 {
		t.Error("empty input")
	}
	xs := []float64{5, 1, 3, 2, 4}
	got := QuantilesExact(xs, 0, 0.5, 1)
	if got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Errorf("quantiles = %v", got)
	}
}

// formulaBucket is the bucket Add computed per value before the tables:
// -1 for underflow, histBuckets for overflow.
func formulaBucket(x float64) int {
	if x < histMin {
		return -1
	}
	if b := int(math.Log10(x/histMin) * bucketsPerDecade); b < histBuckets {
		return b
	}
	return histBuckets
}

// TestHistogramBucketsMatchFormula checks the table lookup against the Log10
// formula at every bucket edge and the 64 float64s on each side of it, and
// at 10^7 log-uniform values spanning underflow to overflow.
func TestHistogramBucketsMatchFormula(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		if got, want := histBucket(x), formulaBucket(x); got != want {
			t.Fatalf("bucket of %v (bits %#x): table %d, formula %d", x, math.Float64bits(x), got, want)
		}
	}
	for i, edge := range histEdge {
		if i < histBuckets && formulaBucket(edge) != i {
			t.Fatalf("edge %d (%v) is in bucket %d", i, edge, formulaBucket(edge))
		}
		bits := math.Float64bits(edge)
		for d := uint64(0); d <= 64; d++ {
			check(math.Float64frombits(bits + d))
			check(math.Float64frombits(bits - d))
		}
	}
	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		check(math.Pow(10, -7+14*rng.Float64())) // 1e-7 … 1e7
	}
}

// TestHistogramCellsHoldOneEdge pins the property Add's single compare
// relies on: no table cell spans more than one bucket edge.
func TestHistogramCellsHoldOneEdge(t *testing.T) {
	for k := 1; k < len(histCell); k++ {
		if d := histCell[k] - histCell[k-1]; d > 1 {
			t.Fatalf("cell %d starts %d buckets after cell %d", k, d, k-1)
		}
	}
}

// The tails: everything below 1 µs (zero and negatives included) underflows,
// everything from 10^6 s on overflows, and so do +Inf and NaN, which the
// formula could not index at all.
func TestHistogramBucketTails(t *testing.T) {
	for _, x := range []float64{math.Inf(-1), -1, 0, 5e-324, 1e-7, math.Nextafter(histMin, 0)} {
		if b := histBucket(x); b != -1 || formulaBucket(x) != -1 {
			t.Errorf("histBucket(%v) = %d, formula %d; want underflow", x, b, formulaBucket(x))
		}
	}
	if b := histBucket(histMin); b != 0 {
		t.Errorf("histBucket(histMin) = %d, want 0", b)
	}
	for _, x := range []float64{1e6, 1e7, 1e100, math.MaxFloat64, math.Inf(1), math.NaN()} {
		if b := histBucket(x); b != histBuckets {
			t.Errorf("histBucket(%v) = %d, want overflow", x, b)
		}
	}
	for _, x := range []float64{1e6, 1e7, 1e100} {
		if b := formulaBucket(x); b != histBuckets {
			t.Errorf("formula bucket of %v = %d, want overflow", x, b)
		}
	}
	var h Histogram
	h.Add(math.Inf(1))
	h.Add(math.NaN())
	if h.over != 2 || h.N() != 2 {
		t.Errorf("Inf/NaN: over=%d N=%d, want 2, 2", h.over, h.N())
	}
}
