// Package sim is the trace-driven simulator of §3–§5: it replays a request
// trace through a configured caching organization (internal/core), accounts
// the paper's metrics — hit ratio, byte hit ratio, the Figure 3 hit-location
// breakdown, memory byte hit ratio (§4.2), and the data-transfer /
// bus-contention overhead of remote-browser hits (§5) — and provides the
// sweep harnesses behind every figure.
package sim

import (
	"fmt"
	"io"

	"baps/internal/cache"
	"baps/internal/core"
	"baps/internal/index"
	"baps/internal/latency"
	"baps/internal/obs"
	"baps/internal/stats"
	"baps/internal/trace"
)

// Sizing selects how browser cache sizes derive from the trace (§4).
type Sizing int

const (
	// SizingMinimum sets every browser cache to
	// S_proxy / (MinBrowserDivisor · N) — the paper's conservative
	// "minimum browser cache size" derived from the proxy configuration
	// study it cites.
	SizingMinimum Sizing = iota
	// SizingAverage sets every browser cache to RelativeSize of the
	// average per-client infinite cache size ("each browser cache is
	// also set to …% of the average infinite browser cache size
	// calculated from all the browsers", §4.2) — the sizing used from
	// Figure 4 on.
	SizingAverage
	// SizingPerClient is an ablation variant of SizingAverage that sizes
	// browser i at RelativeSize of client i's own infinite cache size
	// instead of the population average.
	SizingPerClient
)

// String names the sizing rule.
func (s Sizing) String() string {
	switch s {
	case SizingMinimum:
		return "minimum"
	case SizingPerClient:
		return "per-client"
	default:
		return "average"
	}
}

// Config parameterizes one simulation run.
type Config struct {
	// Organization is the caching organization to simulate.
	Organization core.Organization

	// RelativeSize is the proxy cache size as a fraction of the trace's
	// infinite cache size (the x-axis of Figures 2–7); browser caches
	// scale with it per Sizing.
	RelativeSize float64

	// Sizing selects the browser-cache sizing rule.
	Sizing Sizing

	// MinBrowserDivisor is the divisor d in the minimum sizing rule
	// S_browser = S_proxy / (d·N). The default d = 1 makes the
	// aggregate minimum browser capacity equal the proxy capacity,
	// consistent with the paper's remark that the average sizing works
	// out to 2–10× the minimum.
	MinBrowserDivisor float64

	// ProxyCapOverride, when positive, fixes the proxy capacity in bytes
	// regardless of RelativeSize — used by the §4.4 client-scaling
	// experiment, which pins the proxy at 10 % of the full trace's
	// infinite size while the client population shrinks.
	ProxyCapOverride int64

	// ProxyPolicy and BrowserPolicy select replacement policies (the
	// paper uses LRU; others are ablations).
	ProxyPolicy   cache.Policy
	BrowserPolicy cache.Policy

	// IndexMode, IndexThreshold and IndexStrategy configure the browser
	// index (§2).
	IndexMode      index.Mode
	IndexThreshold float64
	IndexStrategy  index.Strategy

	// ForwardMode selects the §2 delivery alternative for remote hits;
	// ProxyCachesPeerDocs and CacheRemoteHits refine it.
	ForwardMode         core.ForwardMode
	ProxyCachesPeerDocs bool
	CacheRemoteHits     bool

	// BrowserMemFraction is the memory portion of each browser cache
	// (the paper's §4.2 sets it separately and conservatively; §1 argues
	// real browsers keep much or all of their cache in memory). The
	// default is 0.5 — half the browser cache memory-resident.
	BrowserMemFraction float64

	// WarmupFraction excludes the first fraction of requests from the
	// metrics while still exercising the caches — a steady-state view
	// the paper does not take (it counts cold-start misses) but that a
	// downstream user usually wants. 0 reproduces the paper.
	WarmupFraction float64

	// DocTTLSec stamps index entries with a time-to-live (§2's "TTL
	// provided by the data source"); expired entries stop serving
	// remote hits. 0 (the paper's evaluation setting) disables it.
	DocTTLSec float64

	// RevalidateAfterSec, when positive, enables the background
	// revalidation policy (DESIGN.md §14): proxy copies older than this
	// age are kept fresh against origin modifications by background
	// conditional fetches, converting stale-proxy misses into proxy hits
	// at the cost of counted background origin fetches. 0 reproduces the
	// paper.
	RevalidateAfterSec float64

	// ParentRelativeSize, when positive, adds an upper-level proxy of
	// that fraction of the infinite cache size between the organization
	// and the origin (the hierarchy extension; the paper's evaluation
	// has none).
	ParentRelativeSize float64

	// Latency is the timing model (§4.2/§5).
	Latency latency.Model

	// Metrics, when non-nil, exports per-request resolution counters and
	// bus-transfer summaries onto the registry (baps_sim_* families).
	// Counter registration is idempotent, so sweeps can hand the same
	// registry to consecutive runs to accumulate, or a fresh one per run
	// to isolate.
	Metrics *obs.Registry
}

// DefaultConfig returns the paper's configuration for an organization:
// LRU everywhere, immediate index updates, most-recent holder selection,
// fetch-forward delivery with proxy caching of relayed documents, 1/10
// memory tiers, and the restored latency constants.
func DefaultConfig(org core.Organization) Config {
	return Config{
		Organization:        org,
		RelativeSize:        0.10,
		Sizing:              SizingAverage,
		MinBrowserDivisor:   1,
		ProxyPolicy:         cache.LRU,
		BrowserPolicy:       cache.LRU,
		IndexMode:           index.Immediate,
		IndexThreshold:      0.05,
		IndexStrategy:       index.SelectMostRecent,
		ForwardMode:         core.FetchForward,
		ProxyCachesPeerDocs: true,
		CacheRemoteHits:     true,
		BrowserMemFraction:  0.5,
		Latency:             latency.Default(),
	}
}

// Validate reports configuration errors not already caught by core.
func (c *Config) Validate() error {
	if c.RelativeSize <= 0 && c.ProxyCapOverride <= 0 {
		return fmt.Errorf("sim: RelativeSize must be > 0 (or ProxyCapOverride set)")
	}
	if c.RelativeSize < 0 || c.RelativeSize > 1 {
		return fmt.Errorf("sim: RelativeSize %g out of (0,1]", c.RelativeSize)
	}
	if c.MinBrowserDivisor <= 0 {
		return fmt.Errorf("sim: MinBrowserDivisor must be > 0")
	}
	if c.WarmupFraction < 0 || c.WarmupFraction >= 1 {
		return fmt.Errorf("sim: WarmupFraction %g out of [0,1)", c.WarmupFraction)
	}
	if c.ParentRelativeSize < 0 || c.ParentRelativeSize > 1 {
		return fmt.Errorf("sim: ParentRelativeSize %g out of [0,1]", c.ParentRelativeSize)
	}
	return c.Latency.Validate()
}

// CoreConfig is the one derivation of a core.Config from a sim.Config: cache
// capacities from the trace statistics (by Sizing, or ProxyCapOverride) and
// every organization, index, forwarding, freshness and parent-tier setting.
// The replays use it, and so do drivers that build a raw core.System.
func CoreConfig(st *trace.Stats, c Config) core.Config {
	proxyCap := int64(c.RelativeSize * float64(st.InfiniteCacheBytes))
	if c.ProxyCapOverride > 0 {
		proxyCap = c.ProxyCapOverride
	}
	n := st.NumClients
	caps := make([]int64, n)
	switch c.Sizing {
	case SizingMinimum:
		per := int64(float64(proxyCap) / (c.MinBrowserDivisor * float64(n)))
		for i := range caps {
			caps[i] = per
		}
	case SizingPerClient:
		for i := range caps {
			caps[i] = int64(c.RelativeSize * float64(st.ClientInfiniteBytes[i]))
		}
	default: // SizingAverage
		per := int64(c.RelativeSize * float64(st.AvgClientInfiniteBytes()))
		for i := range caps {
			caps[i] = per
		}
	}
	return core.Config{
		Organization:        c.Organization,
		NumClients:          n,
		NumDocs:             st.UniqueDocs,
		ProxyCapacity:       proxyCap,
		BrowserCapacity:     caps,
		ProxyPolicy:         c.ProxyPolicy,
		BrowserPolicy:       c.BrowserPolicy,
		MemFraction:         c.Latency.MemFraction,
		BrowserMemFraction:  c.BrowserMemFraction,
		IndexMode:           c.IndexMode,
		IndexThreshold:      c.IndexThreshold,
		IndexStrategy:       c.IndexStrategy,
		ForwardMode:         c.ForwardMode,
		ProxyCachesPeerDocs: c.ProxyCachesPeerDocs,
		CacheRemoteHits:     c.CacheRemoteHits,
		DocTTLSec:           c.DocTTLSec,
		RevalidateAfterSec:  c.RevalidateAfterSec,
		ParentCapacity:      int64(c.ParentRelativeSize * float64(st.InfiniteCacheBytes)),
	}
}

// Runner replays traces while pooling the heavyweight per-run state — the
// core.System (caches, index, publishers), the contention bus, the latency
// histograms, and the request batch buffer — across consecutive runs. The
// pooled System re-arms in place for any organization (core.System.Reset),
// so a sweep worker builds one System per trace shape, not one per
// organization. The zero value is ready to use. A Runner is not safe for
// concurrent use; sweep drivers give each worker goroutine its own.
type Runner struct {
	sys     *core.System
	bus     *latency.Bus
	hist    stats.Histogram
	lboHist stats.Histogram // the local-browser-cache-only projection's
	buf     []trace.Request
}

// Run replays tr through the configured organization. st may carry
// precomputed trace statistics (to share across the runs of a sweep); pass
// nil to compute them here.
func Run(tr *trace.Trace, st *trace.Stats, c Config) (Result, error) {
	var rn Runner
	return rn.Run(tr, st, c)
}

// RunStream is Run for an out-of-core source: it replays a trace.Stream
// (binary or text) without the trace ever being resident. st must come from
// a prior stats pass over the same source (trace.StreamStats); on an
// in-memory trace the result is bit-identical to Run.
func RunStream(s trace.Stream, st *trace.Stats, c Config) (Result, error) {
	var rn Runner
	return rn.RunStream(s, st, c)
}

// Run is like the package-level Run but reuses the Runner's pooled system,
// bus, histogram, and batch buffer.
func (rn *Runner) Run(tr *trace.Trace, st *trace.Stats, c Config) (Result, error) {
	res, _, err := rn.run(tr, st, c, false)
	return res, err
}

// run is Run that, when withLBO is set, also returns local-browser-cache-only's
// Result from the same pass. withLBO requires a proxy-and-local-browser
// configuration without a parent tier (DESIGN.md §8, the LBO projection).
func (rn *Runner) run(tr *trace.Trace, st *trace.Stats, c Config, withLBO bool) (res, lbo Result, err error) {
	if err := c.Validate(); err != nil {
		return Result{}, Result{}, err
	}
	if st == nil {
		s := trace.Compute(tr)
		st = &s
	}
	return rn.runStream(trace.NewSliceStream(tr), st, len(tr.Requests), c, withLBO)
}

// RunStream is the pooled-state counterpart of the package-level RunStream.
func (rn *Runner) RunStream(s trace.Stream, st *trace.Stats, c Config) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	res, _, err := rn.runStream(s, st, st.NumRequests, c, false)
	return res, err
}

// runStream re-arms (or builds) the simulated system and drives the replay
// engine over the stream. totalRequests anchors the warm-up cutoff. With
// withLBO, every outcome is also projected onto local-browser-cache-only and
// accounted by a second engine, whose Result is the second return value.
func (rn *Runner) runStream(s trace.Stream, st *trace.Stats, totalRequests int, c Config, withLBO bool) (Result, Result, error) {
	ccfg := CoreConfig(st, c)
	if rn.sys == nil || !rn.sys.Reset(ccfg) {
		sys, err := core.New(ccfg)
		if err != nil {
			return Result{}, Result{}, err
		}
		rn.sys = sys
	}
	if rn.bus == nil {
		rn.bus = latency.NewBus(c.Latency)
	} else {
		rn.bus.ResetModel(c.Latency)
	}
	rn.bus.SetObserver(busObserverFor(c))
	warmup := int(c.WarmupFraction * float64(totalRequests))
	rn.hist.Reset()
	rp := newReplay(rn.sys, rn.bus, &rn.hist, c, warmup)
	rp.stamp(s.Name(), ccfg)
	var proj *replay
	if withLBO {
		// The projection shares the system and the bus: neither
		// organization has an index or a remote hit, so the index
		// traffic and bus totals finish reads stay zero for both.
		lc := c
		lc.Organization = core.LocalBrowserCacheOnly
		rn.lboHist.Reset()
		proj = newReplay(rn.sys, rn.bus, &rn.lboHist, lc, warmup)
		proj.stamp(s.Name(), ccfg)
	}
	if rn.buf == nil {
		rn.buf = make([]trace.Request, trace.StreamBatchSize)
	}
	for {
		n, err := s.Next(rn.buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return Result{}, Result{}, err
		}
		for _, r := range rn.buf[:n] {
			out := rn.sys.Access(r)
			rp.account(r, out)
			if proj != nil {
				proj.account(r, localOnly(out))
			}
		}
	}
	var lbo Result
	if proj != nil {
		lbo = proj.finish()
	}
	return rp.finish(), lbo, nil
}

// localOnly projects a proxy-and-local-browser outcome onto
// local-browser-cache-only. Both organizations run the same browser tier on
// the same request sequence: a local hit is a hit in both, and every local
// miss ends in the same delivery into the requester's browser (from the
// proxy or the origin under P+LB, from the origin under LBO), so the browser
// caches never diverge. Without a parent tier, each P+LB local miss is
// exactly the origin miss LBO's Access would return.
func localOnly(out core.Outcome) core.Outcome {
	if out.Class == core.HitLocalBrowser {
		return out
	}
	return core.Outcome{Class: core.Miss, Provider: -1, Size: out.Size, StaleLocal: out.StaleLocal}
}

// readTime is the storage read time at the serving cache.
func readTime(m latency.Model, tier cache.Tier, size int64) float64 {
	if tier == cache.TierMemory {
		return m.MemRead(size)
	}
	return m.DiskRead(size)
}
