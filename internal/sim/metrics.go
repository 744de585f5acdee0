package sim

import (
	"baps/internal/core"
	"baps/internal/obs"
)

// accessMetrics mirrors the request-resolution pipeline onto an obs.Registry
// without touching the replay's allocation profile: every field is a
// pre-resolved counter, so recording an outcome is a handful of atomic adds —
// no map lookups, no strconv, no interface boxing.
type accessMetrics struct {
	// requests counts resolved requests.
	requests *obs.Counter
	// outcomes is indexed by core.HitClass
	// (baps_sim_requests_by_class_total).
	outcomes [5]*obs.Counter
	// falseIndexHits counts wasted remote-browser contacts.
	falseIndexHits *obs.Counter
	// bytesRequested sums delivered body sizes.
	bytesRequested *obs.Counter
	// revalidations counts proxy hits rescued by background revalidation
	// (each cost one background origin fetch).
	revalidations *obs.Counter
}

// newAccessMetrics registers the simulator metric families on reg and
// pre-resolves every child counter; nil when reg is nil.
func newAccessMetrics(reg *obs.Registry) *accessMetrics {
	if reg == nil {
		return nil
	}
	m := &accessMetrics{
		requests: reg.Counter("baps_sim_requests_total",
			"Requests resolved through the caching organization."),
		falseIndexHits: reg.Counter("baps_sim_false_index_hits_total",
			"Remote-browser contacts wasted on stale index entries."),
		bytesRequested: reg.Counter("baps_sim_bytes_requested_total",
			"Body bytes delivered to requesters."),
		revalidations: reg.Counter("baps_sim_revalidations_total",
			"Stale proxy copies refreshed by background revalidation before access."),
	}
	vec := reg.CounterVec("baps_sim_requests_by_class_total",
		"Requests by resolution class (Figure 3 breakdown plus parent/miss).", "class")
	for _, h := range []core.HitClass{core.HitLocalBrowser, core.HitProxy, core.HitRemoteBrowser, core.HitParent, core.Miss} {
		m.outcomes[h] = vec.With(h.String())
	}
	return m
}

// record counts one resolved request.
func (m *accessMetrics) record(out core.Outcome) {
	m.requests.Inc()
	m.outcomes[out.Class].Inc()
	m.bytesRequested.Add(out.Size)
	if out.FalseIndexHits > 0 {
		m.falseIndexHits.Add(int64(out.FalseIndexHits))
	}
	if out.Revalidated {
		m.revalidations.Inc()
	}
}
