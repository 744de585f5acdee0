package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"baps/internal/core"
	"baps/internal/trace"
)

// PaperSizes is the relative cache-size sweep of Figures 2–7 (fractions of
// the infinite cache size; the paper's garbled axis restored to
// 0.5 %, 1 %, 10 %, 20 %).
var PaperSizes = []float64{0.005, 0.01, 0.10, 0.20}

// PaperClientFractions is the §4.4 relative-number-of-clients sweep.
var PaperClientFractions = []float64{0.25, 0.50, 0.75, 1.00}

// SweepResult holds one organization's results across the size sweep.
type SweepResult struct {
	Trace string
	Sizes []float64
	// ByOrg maps each simulated organization to one Result per size, in
	// Sizes order.
	ByOrg map[core.Organization][]Result
}

// Sweep runs the given organizations across the relative-size sweep,
// fanning runs out over GOMAXPROCS workers. base supplies every Config field
// except Organization and RelativeSize.
//
// Two things are shared between configurations, neither of which changes a
// Result. Each worker pools one System across all its runs, whatever the
// organization. And when the sweep holds both local-browser-cache-only and
// proxy-and-local-browser and no parent tier, each P+LB replay also yields
// LBO's Result at that size (Runner.run's projection), so LBO is never
// replayed on its own. Jobs are dispatched longest first — more layers, then
// larger sizes — so the last job to finish is a short one.
func Sweep(tr *trace.Trace, orgs []core.Organization, sizes []float64, base Config) (*SweepResult, error) {
	st := trace.Compute(tr)
	out := &SweepResult{
		Trace: tr.Name,
		Sizes: sizes,
		ByOrg: make(map[core.Organization][]Result, len(orgs)),
	}
	for _, org := range orgs {
		out.ByOrg[org] = make([]Result, len(sizes))
	}
	_, hasLBO := out.ByOrg[core.LocalBrowserCacheOnly]
	_, hasPLB := out.ByOrg[core.ProxyAndLocalBrowser]
	fold := hasLBO && hasPLB && base.ParentRelativeSize == 0

	type job struct {
		org core.Organization
		si  int
	}
	var todo []job
	for _, org := range orgs {
		if fold && org == core.LocalBrowserCacheOnly {
			continue
		}
		for si := range sizes {
			todo = append(todo, job{org, si})
		}
	}
	sort.SliceStable(todo, func(a, b int) bool {
		la, lb := layers(todo[a].org), layers(todo[b].org)
		if la != lb {
			return la > lb
		}
		return sizes[todo[a].si] > sizes[todo[b].si]
	})

	jobs := make(chan job)
	errs := make(chan error, 1)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rn Runner // pooled System/bus/histograms, reused across this worker's runs
			for j := range jobs {
				cfg := base
				cfg.Organization = j.org
				cfg.RelativeSize = sizes[j.si]
				withLBO := fold && j.org == core.ProxyAndLocalBrowser
				res, lbo, err := rn.run(tr, &st, cfg, withLBO)
				if err == nil {
					err = res.Check()
				}
				if err == nil && withLBO {
					err = lbo.Check()
				}
				if err != nil {
					select {
					case errs <- fmt.Errorf("sweep %v@%g: %w", j.org, sizes[j.si], err):
					default:
					}
					continue
				}
				out.ByOrg[j.org][j.si] = res
				if withLBO {
					out.ByOrg[core.LocalBrowserCacheOnly][j.si] = lbo
				}
			}
		}()
	}
	for _, j := range todo {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	return out, nil
}

// layers counts the tiers an organization's replay walks per request (local
// browser, proxy, browser index): the sweep's dispatch order.
func layers(o core.Organization) int {
	switch o {
	case core.BrowsersAware:
		return 3
	case core.GlobalBrowsersCacheOnly, core.ProxyAndLocalBrowser:
		return 2
	default:
		return 1
	}
}

// ScalingResult holds the §4.4 client-scaling experiment: hit-ratio and
// byte-hit-ratio increments of the browsers-aware proxy over
// proxy-and-local-browser as the client population grows.
type ScalingResult struct {
	Trace     string
	Fractions []float64
	BAPS      []Result
	PALB      []Result
	// HRIncrementPct[i] = (HR_baps − HR_palb)/HR_palb × 100 at
	// Fractions[i]; likewise for bytes.
	HRIncrementPct  []float64
	BHRIncrementPct []float64
}

// Scaling runs the §4.4 experiment: for each client fraction the trace is
// restricted to a nested subset of clients, the proxy capacity stays fixed
// at base.RelativeSize of the *full* trace's infinite size, and browser
// caches follow the sizing rule on the subset. subsetSeed makes the client
// subsets reproducible and nested.
func Scaling(tr *trace.Trace, fractions []float64, base Config, subsetSeed int64) (*ScalingResult, error) {
	// Compute also interns the parent trace, so the workers' SubsetClients
	// calls below only read it.
	fullStats := trace.Compute(tr)
	proxyCap := int64(base.RelativeSize * float64(fullStats.InfiniteCacheBytes))
	out := &ScalingResult{
		Trace:           tr.Name,
		Fractions:       fractions,
		BAPS:            make([]Result, len(fractions)),
		PALB:            make([]Result, len(fractions)),
		HRIncrementPct:  make([]float64, len(fractions)),
		BHRIncrementPct: make([]float64, len(fractions)),
	}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	// One job per scaling point; the subset extraction and its statistics
	// pass run inside the worker pool rather than serially on the caller,
	// and both organizations replay the same worker's subset so each worker
	// pools its System/bus/histogram across all its runs.
	jobs := make(chan int)
	workers := runtime.GOMAXPROCS(0)
	if workers > len(fractions) {
		workers = len(fractions)
	}
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rn Runner
			for fi := range jobs {
				sub := trace.SubsetClients(tr, fractions[fi], subsetSeed)
				st := trace.Compute(sub)
				for _, org := range []core.Organization{core.BrowsersAware, core.ProxyAndLocalBrowser} {
					cfg := base
					cfg.Organization = org
					cfg.ProxyCapOverride = proxyCap
					res, err := rn.Run(sub, &st, cfg)
					if err == nil {
						err = res.Check()
					}
					mu.Lock()
					if err != nil {
						if firstErr == nil {
							firstErr = fmt.Errorf("scaling %v@%g: %w", org, fractions[fi], err)
						}
						mu.Unlock()
						continue
					}
					if org == core.BrowsersAware {
						out.BAPS[fi] = res
					} else {
						out.PALB[fi] = res
					}
					mu.Unlock()
				}
			}
		}()
	}
	for fi := range fractions {
		jobs <- fi
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	for i := range fractions {
		b, p := out.BAPS[i], out.PALB[i]
		if p.HitRatio() > 0 {
			out.HRIncrementPct[i] = (b.HitRatio() - p.HitRatio()) / p.HitRatio() * 100
		}
		if p.ByteHitRatio() > 0 {
			out.BHRIncrementPct[i] = (b.ByteHitRatio() - p.ByteHitRatio()) / p.ByteHitRatio() * 100
		}
	}
	return out, nil
}

// MemoryStudyResult holds the §4.2 comparison: the browsers-aware proxy at a
// small relative size against proxy-and-local-browser at a (usually larger)
// size chosen so that the two achieve comparable byte hit ratios — under
// which condition the paper found BAPS serves far more of those bytes from
// memory and thus cuts total hit latency.
type MemoryStudyResult struct {
	Trace string
	BAPS  Result
	PALB  Result
	// MatchedPALBSize is the relative size at which proxy-and-local-
	// browser reaches the browsers-aware byte hit ratio (the paper's
	// traces matched 10 % BAPS against 20 % P+LB).
	MatchedPALBSize float64
	// HitLatencyReductionPct is (PALB hit latency − BAPS hit latency) /
	// PALB total service time × 100: the total-latency saving from the
	// higher memory byte hit ratio at equivalent byte hit ratio.
	HitLatencyReductionPct float64
}

// MemoryStudy runs the §4.2 experiment. sizeBAPS fixes the browsers-aware
// configuration; sizePALB > 0 pins the comparison size directly (the paper
// uses 20 %), while sizePALB == 0 bisects for the proxy-and-local-browser
// size whose byte hit ratio matches (the paper's "for an equivalent byte hit
// ratio" condition made precise).
func MemoryStudy(tr *trace.Trace, sizeBAPS, sizePALB float64, base Config) (*MemoryStudyResult, error) {
	st := trace.Compute(tr)
	cfgB := base
	cfgB.Organization = core.BrowsersAware
	cfgB.RelativeSize = sizeBAPS
	resB, err := Run(tr, &st, cfgB)
	if err != nil {
		return nil, err
	}
	cfgP := base
	cfgP.Organization = core.ProxyAndLocalBrowser

	var resP Result
	if sizePALB > 0 {
		cfgP.RelativeSize = sizePALB
		if resP, err = Run(tr, &st, cfgP); err != nil {
			return nil, err
		}
	} else {
		// Bisect for the matching byte hit ratio; BHR is monotone in
		// cache size for the stack-based LRU organizations. Every probe
		// has the same shape, so one Runner pools the System across the
		// whole bisection.
		var rn Runner
		target := resB.ByteHitRatio()
		lo, hi := sizeBAPS/4, 0.95
		for iter := 0; iter < 12; iter++ {
			mid := (lo + hi) / 2
			cfgP.RelativeSize = mid
			if resP, err = rn.Run(tr, &st, cfgP); err != nil {
				return nil, err
			}
			if resP.ByteHitRatio() < target {
				lo = mid
			} else {
				hi = mid
			}
		}
	}
	out := &MemoryStudyResult{
		Trace:           tr.Name,
		BAPS:            resB,
		PALB:            resP,
		MatchedPALBSize: resP.RelativeSize,
	}
	if resP.TotalServiceSec > 0 {
		out.HitLatencyReductionPct = (resP.HitLatencySec - resB.HitLatencySec) / resP.TotalServiceSec * 100
	}
	return out, nil
}
