package core

import (
	"testing"

	"baps/internal/cache"
	"baps/internal/index"
	"baps/internal/synth"
	"baps/internal/trace"
)

// benchTrace generates a deterministic mid-size workload with real sharing
// structure (the nlanr-bo1 profile at 10 % scale).
func benchTrace(b *testing.B) (*trace.Trace, trace.Stats) {
	b.Helper()
	var prof synth.Profile
	for _, p := range synth.Profiles() {
		if p.Name == "nlanr-bo1" {
			prof = p
		}
	}
	tr, err := synth.Generate(synth.Scaled(prof, 0.10))
	if err != nil {
		b.Fatal(err)
	}
	return tr, trace.Compute(tr)
}

// benchSystem builds a System sized as the paper sizes it (proxy at 10 % of
// the infinite cache size, browsers at 10 % of the average infinite browser
// size).
func benchSystem(b *testing.B, org Organization, tr *trace.Trace, st trace.Stats) *System {
	b.Helper()
	caps := make([]int64, st.NumClients)
	per := int64(0.10 * float64(st.AvgClientInfiniteBytes()))
	for i := range caps {
		caps[i] = per
	}
	sys, err := New(Config{
		Organization:        org,
		NumClients:          st.NumClients,
		NumDocs:             st.UniqueDocs,
		ProxyCapacity:       int64(0.10 * float64(st.InfiniteCacheBytes)),
		BrowserCapacity:     caps,
		ProxyPolicy:         cache.LRU,
		BrowserPolicy:       cache.LRU,
		MemFraction:         0.10,
		BrowserMemFraction:  0.5,
		IndexMode:           index.Immediate,
		IndexStrategy:       index.SelectMostRecent,
		ForwardMode:         FetchForward,
		ProxyCachesPeerDocs: true,
		CacheRemoteHits:     true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkAccess drives the full browsers-aware resolution pipeline — the
// innermost loop of every trace-driven experiment.
func BenchmarkAccess(b *testing.B) {
	tr, st := benchTrace(b)
	sys := benchSystem(b, BrowsersAware, tr, st)
	reqs := tr.Requests
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Access(reqs[i%len(reqs)])
	}
}

// BenchmarkAccessProxyOnly isolates the cache-substrate cost without the
// index layer.
func BenchmarkAccessProxyOnly(b *testing.B) {
	tr, st := benchTrace(b)
	sys := benchSystem(b, ProxyCacheOnly, tr, st)
	reqs := tr.Requests
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Access(reqs[i%len(reqs)])
	}
}
