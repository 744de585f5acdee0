package obs

import (
	"fmt"
	"sort"
	"sync"
)

// metricKind discriminates the families a Registry can hold.
type metricKind int

const (
	kindCounter metricKind = iota
	kindFloatCounter
	kindGauge
	kindGaugeFunc
	kindCounterFunc
	kindCounterVec
	kindSummary
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindFloatCounter:
		return "float counter"
	case kindGauge:
		return "gauge"
	case kindGaugeFunc:
		return "gauge func"
	case kindCounterFunc:
		return "counter func"
	case kindCounterVec:
		return "counter vec"
	case kindSummary:
		return "summary"
	default:
		return fmt.Sprintf("metricKind(%d)", int(k))
	}
}

// labeledFunc is one callback child of a gauge-func family.
type labeledFunc struct {
	label string // label name ("" for an unlabeled single-child family)
	value string // label value
	fn    func() float64
}

// metric is one named family in a registry.
type metric struct {
	name string
	help string
	kind metricKind

	counter  *Counter
	fcounter *FloatCounter
	gauge    *Gauge
	vec      *CounterVec
	summary  *Summary
	gfns     []labeledFunc // kindGaugeFunc: one or more labeled callbacks
	cfn      func() int64  // kindCounterFunc
}

// Registry is a named collection of metrics. All getters are get-or-create
// and panic when a name is reused with a different kind or label — metric
// registration is programmer-controlled, so a mismatch is a bug, not a
// runtime condition.
//
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu      sync.RWMutex
	byName  map[string]*metric
	ordered []*metric // registration order; exposition sorts by name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// validName reports whether name matches the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// get returns the existing family for name after checking its kind, or
// registers a new one built by mk. Called with r.mu held for writing.
func (r *Registry) get(name, help string, kind metricKind, mk func(*metric)) *metric {
	if m := r.byName[name]; m != nil {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, m.kind))
		}
		return m
	}
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	m := &metric{name: name, help: help, kind: kind}
	mk(m)
	r.byName[name] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.get(name, help, kindCounter, func(m *metric) { m.counter = new(Counter) }).counter
}

// FloatCounter returns the float counter registered under name.
func (r *Registry) FloatCounter(name, help string) *FloatCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.get(name, help, kindFloatCounter, func(m *metric) { m.fcounter = new(FloatCounter) }).fcounter
}

// Gauge returns the gauge registered under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.get(name, help, kindGauge, func(m *metric) { m.gauge = new(Gauge) }).gauge
}

// GaugeFunc registers a callback-backed gauge: the function is invoked at
// exposition time. Re-registering the same name replaces the callback,
// so components that rebuild (e.g. test servers) stay idempotent.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.get(name, help, kindGaugeFunc, func(m *metric) {})
	m.gfns = []labeledFunc{{fn: fn}}
}

// LabeledGaugeFunc registers one labeled child of a callback-backed gauge
// family; multiple calls with the same name and label but different values
// accumulate children (e.g. breaker peers by state). Registering an
// existing (name, value) pair replaces that child's callback.
func (r *Registry) LabeledGaugeFunc(name, help, label, value string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.get(name, help, kindGaugeFunc, func(m *metric) {})
	for i := range m.gfns {
		if m.gfns[i].label == label && m.gfns[i].value == value {
			m.gfns[i].fn = fn
			return
		}
	}
	if len(m.gfns) > 0 && m.gfns[0].label != label {
		panic(fmt.Sprintf("obs: gauge func %q label %q conflicts with %q", name, label, m.gfns[0].label))
	}
	m.gfns = append(m.gfns, labeledFunc{label: label, value: value, fn: fn})
}

// CounterFunc registers a callback-backed counter, for components that
// already maintain their own (e.g. mutex-guarded) counts. Re-registering
// replaces the callback.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.get(name, help, kindCounterFunc, func(m *metric) {})
	m.cfn = fn
}

// CounterVec returns the one-label counter family registered under name.
// Declaring its label values creates those children (exposed at zero) and
// closes the family: RestoreCounters restores no child the family does not
// have, since the running build cannot emit one. An open family (values by
// client or job kind) restores every child a snapshot names.
func (r *Registry) CounterVec(name, help, label string, values ...string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.get(name, help, kindCounterVec, func(m *metric) { m.vec = newCounterVec(label, values) })
	if m.vec.label != label {
		panic(fmt.Sprintf("obs: counter vec %q label %q conflicts with %q", name, label, m.vec.label))
	}
	return m.vec
}

// Summary returns the summary registered under name.
func (r *Registry) Summary(name, help string) *Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.get(name, help, kindSummary, func(m *metric) { m.summary = new(Summary) }).summary
}

// CounterValue reports the current value of a counter-like family (counter,
// counter func, or the sum across a counter vec). Unknown names report 0,
// so tests can assert on metrics that may not have been touched yet.
func (r *Registry) CounterValue(name string) int64 {
	r.mu.RLock()
	m := r.byName[name]
	r.mu.RUnlock()
	if m == nil {
		return 0
	}
	switch m.kind {
	case kindCounter:
		return m.counter.Value()
	case kindCounterFunc:
		return m.cfn()
	case kindCounterVec:
		return m.vec.Sum()
	default:
		return 0
	}
}

// VecValue reports the current value of one labeled child of a counter vec.
// Unknown names or label values report 0.
func (r *Registry) VecValue(name, labelValue string) int64 {
	r.mu.RLock()
	m := r.byName[name]
	r.mu.RUnlock()
	if m == nil || m.kind != kindCounterVec {
		return 0
	}
	m.vec.mu.RLock()
	defer m.vec.mu.RUnlock()
	if c := m.vec.byName[labelValue]; c != nil {
		return c.Value()
	}
	return 0
}

// GaugeValue reports the current value of a gauge or gauge-func family
// (summing labeled children). Unknown names report 0.
func (r *Registry) GaugeValue(name string) float64 {
	r.mu.RLock()
	m := r.byName[name]
	r.mu.RUnlock()
	if m == nil {
		return 0
	}
	switch m.kind {
	case kindGauge:
		return float64(m.gauge.Value())
	case kindGaugeFunc:
		var sum float64
		for _, lf := range m.gfns {
			sum += lf.fn()
		}
		return sum
	case kindFloatCounter:
		return m.fcounter.Value()
	default:
		return 0
	}
}

// CounterSnapshot captures the current values of every plain counter and
// counter-vec child, keyed by family name. Callback-backed counters are
// excluded — their owners persist their own state. The snapshot is the
// durable half of warm restart: persist it, then RestoreCounters on boot.
type CounterSnapshot struct {
	Counters map[string]int64            `json:"counters,omitempty"`
	Vecs     map[string]map[string]int64 `json:"vecs,omitempty"`
}

// SnapshotCounters returns the registry's counter state for persistence.
func (r *Registry) SnapshotCounters() CounterSnapshot {
	snap := CounterSnapshot{
		Counters: make(map[string]int64),
		Vecs:     make(map[string]map[string]int64),
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, m := range r.ordered {
		switch m.kind {
		case kindCounter:
			if v := m.counter.Value(); v != 0 {
				snap.Counters[m.name] = v
			}
		case kindCounterVec:
			m.vec.mu.RLock()
			for lv, c := range m.vec.byName {
				if v := c.Value(); v != 0 {
					if snap.Vecs[m.name] == nil {
						snap.Vecs[m.name] = make(map[string]int64)
					}
					snap.Vecs[m.name][lv] = v
				}
			}
			m.vec.mu.RUnlock()
		}
	}
	return snap
}

// RestoreCounters adds a persisted snapshot onto the registry's counters —
// restore-then-count, so live increments made before the snapshot loads are
// kept. Families the snapshot names but the registry lacks (or that are no
// longer plain counters), and children a closed family lacks, are skipped: a
// snapshot from an older build must never wedge startup, nor bring back a
// label value this build no longer has.
func (r *Registry) RestoreCounters(snap CounterSnapshot) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, v := range snap.Counters {
		if m := r.byName[name]; m != nil && m.kind == kindCounter && v > 0 {
			m.counter.Add(v)
		}
	}
	for name, children := range snap.Vecs {
		m := r.byName[name]
		if m == nil || m.kind != kindCounterVec {
			continue
		}
		for lv, v := range children {
			if v > 0 && (!m.vec.closed || m.vec.has(lv)) {
				m.vec.With(lv).Add(v)
			}
		}
	}
}

// snapshotMetrics returns the registered families sorted by name.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.RLock()
	ms := make([]*metric, len(r.ordered))
	copy(ms, r.ordered)
	r.mu.RUnlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	return ms
}
