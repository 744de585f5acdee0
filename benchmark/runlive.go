package main

import (
	"fmt"
	"math"
	"time"
)

// runOpts is what one workload run is told.
type runOpts struct {
	seed    uint64
	seconds float64 // the measurement window
	traced  bool
	tmpRoot string // temp files go under here, inside the checkout
	// setupRounds is how many times set-up runs; setup_s is the median and
	// the last round's cluster is the one measured.
	setupRounds int
	// probeFor is the least time one layer probe runs.
	probeFor time.Duration
	spansOut string // traced runs write their spans here when set
	// smoke marks the unit test's tiny populations: the golden hit ratios
	// belong to the full-size workloads and are not compared.
	smoke bool
}

func (o runOpts) phase(share float64) time.Duration {
	return time.Duration(share * o.seconds * float64(time.Second))
}

// Shares of the window. Untraced: closed loop, then open loop. Traced: four
// closed-loop quarters (baseline, traced, traced, baseline), then the open
// loop with spans on; the probes take what is left.
const (
	shareClosed       = 0.55
	shareOpen         = 0.45
	shareTracedClosed = 0.20 // baseline and traced, each
	shareTracedOpen   = 0.25
)

// Stream ids keep the seeded request sequences of the phases apart.
const (
	streamClosed   = 0
	streamBaseline = 10
	streamOpen     = 50
	streamWarm     = 100
)

// phaseRates is a closed-loop phase reduced to its two rates, each the
// median over fixed slices of the phase.
type phaseRates struct {
	rps, mibS float64
	slices    int
}

func ratesOf(res []opResult, phase time.Duration) phaseRates {
	slice := int64(500 * time.Millisecond)
	if int64(phase) < 8*slice {
		slice = int64(phase) / 8
	}
	var ends []int64
	var one, mib []float64
	for _, r := range res {
		if r.ok {
			ends = append(ends, r.endNS)
			one = append(one, 1)
			mib = append(mib, float64(r.bytes)/(1<<20))
		}
	}
	rps := sliceRates(ends, one, int64(phase), slice)
	return phaseRates{rps: median(rps), mibS: median(sliceRates(ends, mib, int64(phase), slice)), slices: len(rps)}
}

// tally counts operations over any number of phases.
type tally struct{ attempted, failed, origin, stale int64 }

func (t *tally) add(res []opResult) {
	for _, r := range res {
		t.attempted++
		switch {
		case !r.ok:
			t.failed++
		case r.origin:
			t.origin++
		}
		if r.stale {
			t.stale++
		}
	}
}

// hitRatio is fetches not answered by the origin over fetches attempted; a
// failed fetch is a miss.
func (t tally) hitRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed-t.origin) / float64(t.attempted)
}

func (c *liveCluster) openPhase(seed uint64, phase time.Duration) []opResult {
	sched := poissonSchedule(seed, c.spec.openRate, phase, c.streams(seed, streamOpen)[0])
	return openLoop(sched, generators, wallClock{start: time.Now()}, c.do)
}

// runLive runs one live workload: set-up (repeated), the timed phases, and
// in a traced run the span accounting and the layer probes.
func runLive(spec *liveSpec, o runOpts) (*runResult, error) {
	res := newRunResult(spec.name, o.seed, int(math.Round(o.seconds)), o.traced)
	var rec *recorder
	if o.traced {
		rec = newRecorder()
	}

	var c *liveCluster
	var setups []float64
	for i := 0; i < o.setupRounds; i++ {
		if c != nil {
			if err := c.close(); err != nil {
				return nil, fmt.Errorf("%s: tear-down between set-ups: %w", spec.name, err)
			}
		}
		t0 := time.Now()
		var err error
		if c, err = startLive(spec, o.seed, rec, o.tmpRoot); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer c.close()

	var t tally
	var open []opResult
	if o.traced {
		var err error
		if open, err = c.measureTraced(res, rec, o, &t); err != nil {
			return nil, err
		}
	} else {
		open = c.measure(res, o, &t)
		res.set("setup_s", median(setups), len(setups))
	}

	sum := summarizeOpen(open)
	res.set("fetch_p50_ms", sum.p50, sum.samples)
	res.set("fetch_p99_ms", sum.tail, sum.samples)
	res.set("gen_lag_ms", sum.genLagMS, len(open))
	res.Notes["open_loop"] = fmt.Sprintf("%.0f req/s Poisson, %d generators; tail quantile reported as fetch_p99_ms is p%.2f; backlog at phase end %.1f ms",
		spec.openRate, generators, 100*sum.tailQ, sum.backlogMS)
	res.Notes["stale_serves"] = fmt.Sprint(t.stale)
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0

	if t.attempted == t.failed {
		return nil, fmt.Errorf("%s: invalid run: no fetch succeeded", spec.name)
	}
	if sum.backlogMS > 1000 {
		return nil, fmt.Errorf("%s: invalid run: open-loop backlog %.0f ms at phase end (rate %.0f/s is past saturation here)",
			spec.name, sum.backlogMS, spec.openRate)
	}
	if err := c.close(); err != nil {
		return nil, fmt.Errorf("%s: tear-down: %w", spec.name, err)
	}
	if !o.traced {
		res.set("peak_rss_mib", peakRSSMiB(), 1)
	}
	return res, nil
}

// measure is the untraced window: the end-to-end rates and the hit ratio.
// It returns the open-loop results for the latency summary.
func (c *liveCluster) measure(res *runResult, o runOpts, t *tally) []opResult {
	closed := closedLoop(o.phase(shareClosed), c.streams(o.seed, streamClosed), c.do)
	open := c.openPhase(o.seed, o.phase(shareOpen))
	t.add(closed)
	t.add(open)
	rates := ratesOf(closed, o.phase(shareClosed))
	res.set("fetch_rps", rates.rps, rates.slices)
	res.set("goodput_mib_s", rates.mibS, rates.slices)
	res.set("hit_ratio", t.hitRatio(), int(t.attempted))
	return open
}

// measureTraced is the traced window: spans and counter deltas over the
// traced phases, the tracing overhead, then the layer probes.
func (c *liveCluster) measureTraced(res *runResult, rec *recorder, o runOpts, t *tally) ([]opResult, error) {
	// The overhead baseline runs before and after the traced closed loop
	// (off, on, on, off), so that a cache still warming favours neither
	// side; the open loop goes last because the closed loop runs slower
	// for a while after a phase with idle gaps.
	quarter := o.phase(shareTracedClosed / 2)
	baseStreams, tracedStreams := c.streams(o.seed, streamBaseline), c.streams(o.seed, streamClosed)
	base1 := closedLoop(quarter, baseStreams, c.do)
	delta := c.counters().negated()
	rec.on.Store(true)
	closed1 := closedLoop(quarter, tracedStreams, c.do)
	closed2 := closedLoop(quarter, tracedStreams, c.do)
	rec.on.Store(false)
	delta.add(c.counters())
	base2 := closedLoop(quarter, baseStreams, c.do)
	delta.add(c.counters().negated())
	rec.on.Store(true)
	open := c.openPhase(o.seed, o.phase(shareTracedOpen))
	rec.on.Store(false)
	delta.add(c.counters())

	var traced tally
	for _, phase := range [][]opResult{closed1, closed2, open} {
		traced.add(phase)
		t.add(phase)
	}
	t.add(base1)
	t.add(base2)
	baseRPS := ratesOf(base1, quarter).rps + ratesOf(base2, quarter).rps
	r1, r2 := ratesOf(closed1, quarter), ratesOf(closed2, quarter)
	if baseRPS > 0 {
		res.set("trace.overhead_ratio", (r1.rps+r2.rps)/baseRPS, r1.slices+r2.slices)
	}
	linkSpans(rec.spans)
	reportLayers(res, selfTimes(rec.spans), delta, traced)
	if o.spansOut != "" {
		if err := writeSpans(o.spansOut, rec.spans); err != nil {
			return nil, err
		}
	}
	return open, c.spec.probes(res, c.spec, o)
}

// counters is everything the traced run reads around its windows, flat so
// that windows add up.
type counters [nCounters]int64

const (
	cRequests = iota
	cProxyHits
	cRemoteHits
	cOriginFetches
	cFalsePeerHits
	cCoalesced
	cOriginRetries
	cDiskHits
	cDiskWrites
	cDiskReads
	cIndexBatches
	cIndexDeltas
	cRevalidations
	cInvalidations
	cCacheDocs
	cQueueCompleted
	cQueueDropped
	cQueueRetried
	cQueueDead
	cOriginServed
	cAgentRequests
	cAgentLocalHits
	cAgentPeerServes
	cAgentIndexRequests
	nCounters
)

func (c *liveCluster) counters() counters {
	p, a := c.proxy.Snapshot(), c.agentTotals()
	out := counters{
		cRequests: p.Requests, cProxyHits: p.ProxyHits, cRemoteHits: p.RemoteHits, cOriginFetches: p.OriginFetches,
		cFalsePeerHits: p.FalsePeerHits, cCoalesced: p.Coalesced, cOriginRetries: p.OriginRetries,
		cDiskHits: p.DiskHits, cDiskWrites: p.DiskWrites, cDiskReads: p.DiskReads,
		cIndexBatches: p.IndexBatches, cIndexDeltas: p.IndexBatchDeltas,
		cRevalidations: p.Revalidations, cInvalidations: p.InvalidationsSent, cCacheDocs: int64(p.CacheDocs),
		cOriginServed:  c.origin.Fetches(),
		cAgentRequests: a.Requests, cAgentLocalHits: a.LocalHits, cAgentPeerServes: a.PeerServes,
		cAgentIndexRequests: a.IndexOps + a.IndexSyncs + a.IndexBatches,
	}
	if w := p.Workqueue; w != nil {
		out[cQueueCompleted], out[cQueueDropped], out[cQueueRetried], out[cQueueDead] = w.Completed, w.Dropped, w.Retries, w.DeadLettered
	}
	return out
}

func (c counters) negated() counters {
	for i := range c {
		c[i] = -c[i]
	}
	return c
}

func (c *counters) add(o counters) {
	for i := range c {
		c[i] += o[i]
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// reportLayers turns spans and counter deltas into the per-layer metrics.
func reportLayers(res *runResult, lt map[string]layerTime, d counters, t tally) {
	root := lt[spanClientFetch]
	if ag := lt[spanAgentGet]; ag.count > 0 {
		root = ag
		res.set("browser.get_us", ag.meanBusyUS(), ag.count)
	}
	res.set("proxy.spans", float64(root.count), 0)
	res.set("proxy.busy_ms", float64(root.busyNS)/1e6, root.count)
	res.set("proxy.self_us", root.meanSelfUS(), root.count)
	oo, op := lt[spanOutOrigin], lt[spanOutPeer]
	res.set("proxy.out_origin_us", oo.meanBusyUS(), oo.count)
	res.set("proxy.out_origin_count", float64(oo.count), 0)
	res.set("proxy.out_peer_us", op.meanBusyUS(), op.count)
	res.set("proxy.out_peer_count", float64(op.count), 0)
	res.set("proxy.out_background", float64(oo.unparented+op.unparented), 0)
	os := lt[spanOriginServe]
	res.set("origin.serve_us", os.meanBusyUS(), os.count)

	for name, i := range map[string]int{
		"proxy.origin_retries": cOriginRetries, "proxy.hits": cProxyHits, "proxy.remote_hits": cRemoteHits,
		"proxy.origin_fetches": cOriginFetches, "proxy.coalesced": cCoalesced, "proxy.false_peer_hits": cFalsePeerHits,
		"proxy.disk_hits": cDiskHits, "proxy.disk_writes": cDiskWrites, "proxy.disk_reads": cDiskReads,
		"proxy.index_batches": cIndexBatches, "proxy.index_deltas": cIndexDeltas,
		"proxy.revalidations": cRevalidations, "proxy.invalidations": cInvalidations,
		"browser.peer_serves": cAgentPeerServes,
		"workqueue.completed": cQueueCompleted, "workqueue.dropped": cQueueDropped,
		"workqueue.retried": cQueueRetried, "workqueue.dead_lettered": cQueueDead,
	} {
		res.set(name, float64(d[i]), 0)
	}

	res.set("cache.proxy_hit_rate", ratio(d[cProxyHits], d[cRequests]), int(d[cRequests]))
	// Every origin acquisition is a cache store; stores the resident count
	// did not grow by pushed something out.
	stores := d[cOriginServed]
	res.set("cache.evictions", math.Max(0, float64(stores-d[cCacheDocs])), 0)
	res.set("index.useful_ratio", ratio(d[cRemoteHits], d[cRemoteHits]+d[cFalsePeerHits]), int(d[cRemoteHits]+d[cFalsePeerHits]))

	nonLocal := d[cAgentRequests] - d[cAgentLocalHits]
	res.set("browser.local_hit_ratio", ratio(d[cAgentLocalHits], d[cAgentRequests]), int(d[cAgentRequests]))
	res.set("browser.index_reqs_per_fetch", ratio(d[cAgentIndexRequests], nonLocal), int(nonLocal))
	// The proxy signs once per origin acquisition; a verifying agent checks
	// every body that did not come from its own cache.
	res.set("integrity.signs", float64(stores), 0)
	res.set("integrity.verifies", float64(nonLocal), 0)
	res.set("pipeline.stale_rate", ratio(t.stale, t.attempted), int(t.attempted))
	res.set("origin.fetches_per_req", ratio(stores, t.attempted), int(t.attempted))
}
