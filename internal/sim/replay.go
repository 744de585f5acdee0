package sim

import (
	"baps/internal/cache"
	"baps/internal/core"
	"baps/internal/latency"
	"baps/internal/stats"
	"baps/internal/trace"
)

// replay is the per-request accounting engine shared by the sequential and
// sharded drivers: it feeds requests through a core.System, prices each
// resolution with the latency model and contention bus, and accumulates the
// Result. One replay owns its system/bus/histogram for the duration of a
// run; the sharded driver builds one per shard.
type replay struct {
	sys  *core.System
	bus  *latency.Bus
	hist *stats.Histogram
	m    latency.Model
	fwd  core.ForwardMode

	// metrics receives the baps_sim_* counters (nil when off).
	metrics *accessMetrics

	// warmup is the number of leading requests excluded from metrics; idx
	// counts requests replayed so far. The bus totals are snapshotted the
	// instant idx reaches warmup so warm-up transfers are excluded from
	// the Remote* wire totals.
	warmup int
	idx    int

	warmTransferSec   float64
	warmContentionSec float64
	warmTransfers     int64
	warmBytes         int64

	res Result
}

// newReplay readies an engine over an already-reset system and bus. The
// caller stamps res.Trace / res.ProxyCap / res.BrowserCapTotal (see stamp).
func newReplay(sys *core.System, bus *latency.Bus, hist *stats.Histogram, c Config, warmup int) *replay {
	return &replay{
		sys:     sys,
		bus:     bus,
		hist:    hist,
		m:       c.Latency,
		fwd:     c.ForwardMode,
		metrics: newAccessMetrics(c.Metrics),
		warmup:  warmup,
		res: Result{
			Organization: c.Organization,
			RelativeSize: c.RelativeSize,
			Sizing:       c.Sizing,
		},
	}
}

// stamp records the run's trace name and derived capacities on the Result.
func (rp *replay) stamp(name string, ccfg core.Config) {
	rp.res.Trace = name
	rp.res.ProxyCap = ccfg.ProxyCapacity
	for _, c := range ccfg.BrowserCapacity {
		rp.res.BrowserCapTotal += c
	}
}

// step replays one request.
func (rp *replay) step(r trace.Request) { rp.account(r, rp.sys.Access(r)) }

// account prices one resolved request with the latency model and the
// contention bus and folds it into the metrics and, past the warm-up, the
// Result. It never touches the system, so an outcome that another
// organization's replay derived can be accounted here too.
func (rp *replay) account(r trace.Request, out core.Outcome) {
	if rp.metrics != nil {
		rp.metrics.record(out)
	}
	if rp.idx == rp.warmup {
		// Metrics start here; remote-bus totals accumulated during
		// warm-up are excluded in finish.
		rp.warmTransferSec = rp.bus.TransferSec
		rp.warmContentionSec = rp.bus.ContentionSec
		rp.warmTransfers = rp.bus.Transfers
		rp.warmBytes = rp.bus.Bytes
	}
	counted := rp.idx >= rp.warmup
	rp.idx++

	m := rp.m
	res := &rp.res
	var lat float64
	var remoteHops int64
	switch out.Class {
	case core.HitLocalBrowser:
		lat = readTime(m, out.Tier, r.Size)
	case core.HitProxy:
		lat = readTime(m, out.Tier, r.Size) + m.LANTransfer(r.Size)
	case core.HitRemoteBrowser:
		lat = readTime(m, out.Tier, r.Size)
		// Browser→proxy→browser under fetch-forward (two LAN legs),
		// browser→browser under direct-forward (one).
		hops := 1
		if rp.fwd == core.FetchForward {
			hops = 2
		}
		at := r.Time
		for h := 0; h < hops; h++ {
			wait, dur := rp.bus.Transfer(at, r.Size)
			at += wait + dur
			lat += wait + dur
		}
		remoteHops = int64(hops)
	case core.HitParent:
		// The parent sits partway up the WAN path.
		lat = readTime(m, out.Tier, r.Size) +
			m.ParentCostFactor*m.UpstreamFetch(r.Size) + m.LANTransfer(r.Size)
	case core.Miss:
		lat = m.UpstreamFetch(r.Size) + m.LANTransfer(r.Size)
	}
	// A wasted contact with a stale index holder costs one LAN connection
	// setup each way.
	lat += 2 * m.ConnSetupSec * float64(out.FalseIndexHits)
	if !counted {
		return
	}
	res.Requests++
	res.TotalBytes += r.Size
	switch out.Class {
	case core.HitLocalBrowser:
		res.LocalHits++
		res.LocalBytes += r.Size
	case core.HitProxy:
		res.ProxyHits++
		res.ProxyBytes += r.Size
	case core.HitRemoteBrowser:
		res.RemoteHits++
		res.RemoteBytes += r.Size
		res.RemoteConnections += remoteHops
	case core.HitParent:
		res.ParentHits++
		res.ParentBytes += r.Size
	case core.Miss:
		res.Misses++
	}
	// Parent hits are upstream traffic in the paper's metrics: only
	// browser/proxy/remote-browser hits count as cache hits.
	if out.Class != core.Miss && out.Class != core.HitParent {
		res.HitLatencySec += lat
		if out.Tier == cache.TierMemory {
			res.MemoryHitBytes += r.Size
		}
	}
	res.FalseIndexHits += int64(out.FalseIndexHits)
	if out.StaleLocal {
		res.StaleLocal++
	}
	if out.StaleProxy {
		res.StaleProxy++
	}
	if out.Revalidated {
		res.Revalidations++
	}
	res.TotalServiceSec += lat
	rp.hist.Add(lat)
}

// finish folds the post-warm-up bus deltas, index-traffic totals, and
// latency quantiles into the Result and returns it.
func (rp *replay) finish() Result {
	res := rp.res
	res.IndexMessages, res.IndexEntriesShipped = rp.sys.IndexMessageStats()
	res.RemoteTransferSec = rp.bus.TransferSec - rp.warmTransferSec
	res.RemoteContentionSec = rp.bus.ContentionSec - rp.warmContentionSec
	res.RemoteBytesOnWire = rp.bus.Bytes - rp.warmBytes
	res.RemoteConnectionsOnWire = rp.bus.Transfers - rp.warmTransfers
	res.ServiceP50 = rp.hist.Quantile(0.50)
	res.ServiceP95 = rp.hist.Quantile(0.95)
	res.ServiceP99 = rp.hist.Quantile(0.99)
	res.ServiceMax = rp.hist.Max()
	return res
}
