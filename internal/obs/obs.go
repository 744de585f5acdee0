// Package obs is the repository's zero-dependency observability plane:
// a metrics registry with atomic counters, gauges, and label-sharded
// variants; Prometheus text-format exposition; and a lightweight
// ring-buffered request tracer.
//
// The package is built for the hot paths it instruments. Counter and Gauge
// increments are single atomic operations with no allocation, so the
// simulator's Access loop and the live proxy's fetch path can stay at
// 0 allocs/op with metrics enabled. Label lookups (CounterVec.With) do
// allocate-free map reads after first use; callers on hot paths should
// resolve the *Counter once and keep the pointer.
package obs

import (
	"math"
	"sync"
	"sync/atomic"

	"baps/internal/stats"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (callers must keep counters monotone; negative deltas are
// a programming error but are not checked on the hot path).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// FloatCounter is a monotonically increasing float metric (seconds totals).
// It uses compare-and-swap on the bit pattern, so Add is lock-free and safe
// under -race.
type FloatCounter struct {
	bits atomic.Uint64
}

// Add adds delta.
func (c *FloatCounter) Add(delta float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reports the current total.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an integer metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reports the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// CounterVec is a counter family sharded by one label. With returns the
// child counter for a label value, creating it on first use; the returned
// pointer can be cached by hot-path callers so steady-state increments are
// a single atomic add.
type CounterVec struct {
	label string
	// closed: every label value was declared at registration, so no other
	// child is restored from a snapshot (RestoreCounters).
	closed bool

	mu     sync.RWMutex
	byName map[string]*Counter
	byInt  map[int]*Counter // WithInt cache: avoids strconv on numeric labels
}

func newCounterVec(label string, values []string) *CounterVec {
	v := &CounterVec{
		label:  label,
		closed: len(values) > 0,
		byName: make(map[string]*Counter),
		byInt:  make(map[int]*Counter),
	}
	for _, value := range values {
		v.byName[value] = new(Counter)
	}
	return v
}

// With returns the child counter for the given label value.
func (v *CounterVec) With(value string) *Counter {
	v.mu.RLock()
	c := v.byName[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.byName[value]; c == nil {
		c = new(Counter)
		v.byName[value] = c
	}
	return c
}

// has reports whether the family has a child for value.
func (v *CounterVec) has(value string) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.byName[value] != nil
}

// WithInt returns the child counter for a numeric label value (formatted in
// decimal). The int-keyed cache means repeat lookups never format the
// number, so per-peer accounting by client id stays allocation-free after
// the first serve.
func (v *CounterVec) WithInt(id int) *Counter {
	v.mu.RLock()
	c := v.byInt[id]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.byInt[id]; c == nil {
		c = v.withLocked(itoa(id))
		v.byInt[id] = c
	}
	return c
}

func (v *CounterVec) withLocked(value string) *Counter {
	c := v.byName[value]
	if c == nil {
		c = new(Counter)
		v.byName[value] = c
	}
	return c
}

// Sum reports the total across all label values.
func (v *CounterVec) Sum() int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var sum int64
	for _, c := range v.byName {
		sum += c.Value()
	}
	return sum
}

// Summary records a value distribution on a fixed-layout log-scale
// histogram (stats.Histogram) under a mutex, and is exposed as a Prometheus
// summary with 0.5/0.95/0.99 quantiles plus _sum and _count.
type Summary struct {
	mu   sync.Mutex
	hist stats.Histogram
}

// Observe records one value (seconds, here).
func (s *Summary) Observe(x float64) {
	s.mu.Lock()
	s.hist.Add(x)
	s.mu.Unlock()
}

// Count reports the number of observations.
func (s *Summary) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hist.N()
}

// snapshot returns (count, sum, q50, q95, q99) under the lock.
func (s *Summary) snapshot() (n int64, sum, q50, q95, q99 float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n = s.hist.N()
	sum = s.hist.Mean() * float64(n)
	q50 = s.hist.Quantile(0.50)
	q95 = s.hist.Quantile(0.95)
	q99 = s.hist.Quantile(0.99)
	return
}

// itoa formats a non-negative (or small negative) int without fmt.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [24]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
