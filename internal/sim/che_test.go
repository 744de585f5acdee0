package sim

import (
	"fmt"
	"math"
	"testing"

	"baps/internal/core"
	"baps/internal/synth"
	"baps/internal/trace"
)

// irmTrace runs an independent-reference profile through the real
// generator: one shared Zipf(alpha) universe of docs documents, no private
// universes, no recency re-references, no modifications, every body 8 KiB,
// and uniform client activity. Every request is then an independent draw
// from the same popularity law, whichever client sends it.
func irmTrace(t *testing.T, alpha float64, docs, requests, clients int) *trace.Trace {
	t.Helper()
	tr, err := synth.Generate(synth.Profile{
		Name: fmt.Sprintf("irm-%g", alpha), Clients: clients, Requests: requests, DurationSec: 3600,
		SharedDocs: docs, SharedFraction: 1, ZipfAlpha: alpha,
		MeanDocKB: 8, MinDocBytes: 8192, MaxDocBytes: 8192,
		Seed: 0x5EED0C1E,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// cheHitRatio is Che's approximation of an LRU cache of c equal-size
// documents under the independent-reference model with popularities p (Che,
// Tung and Wang, IEEE JSAC 2002): the characteristic time T solves
// Σ(1 − e^{−pᵢT}) = c, and the hit ratio is Σ pᵢ(1 − e^{−pᵢT}).
func cheHitRatio(p []float64, c float64) float64 {
	occupancy := func(T float64) float64 {
		s := 0.0
		for _, pi := range p {
			s += -math.Expm1(-pi * T)
		}
		return s
	}
	lo, hi := 0.0, 1.0
	for occupancy(hi) < c {
		lo, hi = hi, 2*hi
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if occupancy(mid) < c {
			lo = mid
		} else {
			hi = mid
		}
	}
	T := (lo + hi) / 2
	h := 0.0
	for _, pi := range p {
		h += pi * -math.Expm1(-pi*T)
	}
	return h
}

// zipfLaw is the generator's shared-universe popularity: pᵢ ∝ 1/(i+1)^α.
func zipfLaw(n int, alpha float64) []float64 {
	p := make([]float64, n)
	sum := 0.0
	for i := range p {
		p[i] = 1 / math.Pow(float64(i+1), alpha)
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// TestLRUMatchesCheApproximation checks the simulator's LRU tiers against an
// analytic oracle. On an independent-reference trace, proxy-cache-only is one
// LRU cache fed by every request, and local-browser-cache-only is one LRU
// cache per client fed by that client's requests, each an independent draw
// from the same law; both must match Che's approximation at the capacity (in
// documents) the sizing rule gives, with the cold start excluded by warm-up.
func TestLRUMatchesCheApproximation(t *testing.T) {
	const (
		docs     = 4000
		requests = 200_000
		clients  = 4
		// The largest error measured at this size is 0.0022
		// (local-browser-cache-only, α 0.6 at 20 %), the rest at most
		// 0.0016; the tolerance adds margin for sampling noise.
		tolerance = 0.004
	)
	for _, alpha := range []float64{0.6, 0.8, 1.0} {
		tr := irmTrace(t, alpha, docs, requests, clients)
		st := trace.Compute(tr)
		p := zipfLaw(docs, alpha)
		for _, rel := range []float64{0.005, 0.01, 0.05, 0.10, 0.20} {
			for _, org := range []core.Organization{core.ProxyCacheOnly, core.LocalBrowserCacheOnly} {
				cfg := DefaultConfig(org)
				cfg.RelativeSize = rel
				cfg.WarmupFraction = 0.25
				res, err := Run(tr, &st, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var got, capBytes float64
				if org == core.ProxyCacheOnly {
					got, capBytes = res.ProxyHitRatio(), float64(res.ProxyCap)
				} else {
					got, capBytes = res.LocalHitRatio(), float64(res.BrowserCapTotal)/clients
				}
				want := cheHitRatio(p, math.Floor(capBytes/8192))
				t.Logf("%v α=%g %g%%: simulator %.4f, Che %.4f, error %+.4f", org, alpha, rel*100, got, want, got-want)
				if math.Abs(got-want) > tolerance {
					t.Errorf("%v α=%g at %g%%: simulator %.4f, Che %.4f (tolerance %g)",
						org, alpha, rel*100, got, want, tolerance)
				}
			}
		}
	}
}
