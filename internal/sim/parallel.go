package sim

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"baps/internal/core"
	"baps/internal/latency"
	"baps/internal/stats"
	"baps/internal/trace"
)

// Sharded replay (DESIGN.md §16): the client population is partitioned
// round-robin across S shard workers (global client g lands on shard g mod S
// as local client g div S), each shard simulating an independent slice of the
// organization — its own browsers, a 1/S slice of the proxy and parent
// capacity, its own contention bus. A router goroutine drives the trace
// stream once, fanning each request to its owner shard in trace order, so
// every shard sees its clients' requests in the original global order and is
// therefore deterministic regardless of scheduling. Results merge in shard
// index order.
//
// Determinism contract: with Shards == 1 the result is bit-identical to Run /
// RunStream (the partition is the identity and the capacity slices reduce to
// the global ones). With Shards > 1 the simulated organization genuinely
// changes — peer-browser hits can only come from same-shard peers and each
// proxy slice evicts independently — so aggregate ratios carry a small,
// population-dependent epsilon against the sequential run (gated by test at
// canet2's scale). Repeated runs at the same shard count are bit-identical to
// each other.

// shardChunkSize is the number of requests per router→worker hand-off; large
// enough to amortize channel overhead, small enough to keep buffered memory
// per shard trivial.
const shardChunkSize = 2048

// ShardProgress publishes live replay progress from shard workers; safe for
// concurrent use. Obtain one from NewShardProgress and pass it via
// ShardedOptions; a progress ticker can read it while the replay runs.
type ShardProgress struct {
	counts []atomic.Int64
}

// NewShardProgress readies a progress board for the given shard count.
func NewShardProgress(shards int) *ShardProgress {
	return &ShardProgress{counts: make([]atomic.Int64, shards)}
}

// Shards reports the number of shards tracked.
func (p *ShardProgress) Shards() int { return len(p.counts) }

// Shard reports the requests replayed so far by shard i.
func (p *ShardProgress) Shard(i int) int64 { return p.counts[i].Load() }

// Total reports the requests replayed so far across all shards.
func (p *ShardProgress) Total() int64 {
	var t int64
	for i := range p.counts {
		t += p.counts[i].Load()
	}
	return t
}

// ShardedOptions tunes RunShardedOpts.
type ShardedOptions struct {
	// Shards is the worker count; 0 means GOMAXPROCS. Clamped to the
	// client population.
	Shards int

	// Progress, when non-nil, receives live per-shard replay counts. It
	// must have been created with NewShardProgress(Shards) after clamping;
	// ShardCount reports the clamped value up front.
	Progress *ShardProgress
}

// ShardCount reports the effective shard count RunShardedOpts would use for
// a population of numClients: opts.Shards defaulted to GOMAXPROCS and
// clamped to [1, numClients].
func ShardCount(requested, numClients int) int {
	s := requested
	if s <= 0 {
		s = runtime.GOMAXPROCS(0)
	}
	if numClients > 0 && s > numClients {
		s = numClients
	}
	if s < 1 {
		s = 1
	}
	return s
}

// RunSharded replays a trace stream across the given number of shard workers
// (0 = GOMAXPROCS) and merges the per-shard results deterministically. st
// must come from a stats pass over the same source; with warm-up on it must
// also carry per-client request counts (trace.Compute and trace.StreamStats
// both provide them), from which each shard derives its warm-up cutoff.
func RunSharded(s trace.Stream, st *trace.Stats, c Config, shards int) (Result, error) {
	return RunShardedOpts(s, st, c, ShardedOptions{Shards: shards})
}

// RunShardedOpts is RunSharded with live-progress plumbing.
func RunShardedOpts(s trace.Stream, st *trace.Stats, c Config, opts ShardedOptions) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	nshards := ShardCount(opts.Shards, st.NumClients)
	if opts.Progress != nil && opts.Progress.Shards() != nshards {
		return Result{}, fmt.Errorf("sim: progress sized for %d shards, replay uses %d (use ShardCount)",
			opts.Progress.Shards(), nshards)
	}
	if c.WarmupFraction > 0 && len(st.ClientRequests) < st.NumClients {
		return Result{}, fmt.Errorf("sim: sharded warm-up needs per-client request counts; recompute trace stats")
	}
	global := buildCoreConfig(st, c)
	busObserver := busObserverFor(c)

	// Build the shard engines sequentially up front: shard construction
	// mutates no shared state afterwards, and a deterministic build order
	// keeps any interned side effects reproducible.
	engines := make([]*replay, nshards)
	for sh := 0; sh < nshards; sh++ {
		sys, err := core.New(shardCoreConfig(global, sh, nshards))
		if err != nil {
			return Result{}, err
		}
		bus := latency.NewBus(c.Latency)
		bus.SetObserver(busObserver)
		// Per-shard warm-up: the same fraction of the shard's own
		// request subsequence that the sequential replay would skip of
		// the whole trace.
		warmup := 0
		if c.WarmupFraction > 0 {
			var shardReqs int64
			for g := sh; g < st.NumClients; g += nshards {
				shardReqs += st.ClientRequests[g]
			}
			warmup = int(c.WarmupFraction * float64(shardReqs))
		}
		engines[sh] = newReplay(sys, bus, &stats.Histogram{}, c, warmup)
	}

	if err := routeShards(s, engines, nshards, opts.Progress); err != nil {
		return Result{}, err
	}

	// Deterministic merge in shard index order.
	merged := Result{
		Trace:        s.Name(),
		Organization: c.Organization,
		RelativeSize: c.RelativeSize,
		Sizing:       c.Sizing,
		ProxyCap:     global.ProxyCapacity,
	}
	for _, cap := range global.BrowserCapacity {
		merged.BrowserCapTotal += cap
	}
	var hist stats.Histogram
	for _, rp := range engines {
		r := rp.finish()
		merged.Requests += r.Requests
		merged.TotalBytes += r.TotalBytes
		merged.LocalHits += r.LocalHits
		merged.ProxyHits += r.ProxyHits
		merged.RemoteHits += r.RemoteHits
		merged.ParentHits += r.ParentHits
		merged.Misses += r.Misses
		merged.LocalBytes += r.LocalBytes
		merged.ProxyBytes += r.ProxyBytes
		merged.RemoteBytes += r.RemoteBytes
		merged.ParentBytes += r.ParentBytes
		merged.MemoryHitBytes += r.MemoryHitBytes
		merged.FalseIndexHits += r.FalseIndexHits
		merged.StaleLocal += r.StaleLocal
		merged.StaleProxy += r.StaleProxy
		merged.Revalidations += r.Revalidations
		merged.PrefetchPushes += r.PrefetchPushes
		merged.IndexMessages += r.IndexMessages
		merged.IndexEntriesShipped += r.IndexEntriesShipped
		merged.TotalServiceSec += r.TotalServiceSec
		merged.HitLatencySec += r.HitLatencySec
		merged.RemoteTransferSec += r.RemoteTransferSec
		merged.RemoteContentionSec += r.RemoteContentionSec
		merged.RemoteConnections += r.RemoteConnections
		merged.RemoteBytesOnWire += r.RemoteBytesOnWire
		merged.RemoteConnectionsOnWire += r.RemoteConnectionsOnWire
		hist.Merge(rp.hist)
	}
	merged.ServiceP50 = hist.Quantile(0.50)
	merged.ServiceP95 = hist.Quantile(0.95)
	merged.ServiceP99 = hist.Quantile(0.99)
	merged.ServiceMax = hist.Max()
	return merged, nil
}

// busObserverFor builds the shared metrics observer for shard buses; obs
// summaries and counters are internally synchronized, so one observer can
// serve every shard. Returns nil when metrics are off.
func busObserverFor(c Config) func(wait, duration float64, size int64) {
	if c.Metrics == nil {
		return nil
	}
	busWait := c.Metrics.Summary("baps_sim_bus_wait_seconds",
		"Bus-contention wait per remote-hit LAN transfer.")
	busDur := c.Metrics.Summary("baps_sim_bus_transfer_seconds",
		"Raw LAN transfer time per remote-hit leg.")
	busBytes := c.Metrics.Counter("baps_sim_bus_bytes_total",
		"Bytes moved over the shared LAN by remote hits.")
	return func(wait, duration float64, size int64) {
		busWait.Observe(wait)
		busDur.Observe(duration)
		busBytes.Add(size)
	}
}

// shardCoreConfig derives shard sh's slice of the global core configuration:
// the shard's clients keep their globally derived browser capacities, and the
// shared tiers (proxy, parent) split evenly. Integer division drops at most
// S-1 bytes of each shared capacity in total — and is exact for S == 1, which
// the bit-identity guarantee relies on.
func shardCoreConfig(global core.Config, sh, nshards int) core.Config {
	ccfg := global
	n := 0
	if global.NumClients > sh {
		n = (global.NumClients - sh + nshards - 1) / nshards
	}
	caps := make([]int64, n)
	for i := 0; i < n; i++ {
		caps[i] = global.BrowserCapacity[sh+i*nshards]
	}
	ccfg.NumClients = n
	ccfg.BrowserCapacity = caps
	ccfg.ProxyCapacity = global.ProxyCapacity / int64(nshards)
	ccfg.ParentCapacity = global.ParentCapacity / int64(nshards)
	return ccfg
}

// routeShards drives the stream once, fanning each request to its owner
// shard over a bounded channel; shard workers replay their subsequence
// concurrently. Chunks are pooled, so steady-state routing allocates
// nothing.
func routeShards(s trace.Stream, engines []*replay, nshards int, progress *ShardProgress) error {
	chans := make([]chan []trace.Request, nshards)
	for i := range chans {
		chans[i] = make(chan []trace.Request, 4)
	}
	pool := sync.Pool{New: func() any {
		return make([]trace.Request, 0, shardChunkSize)
	}}
	var wg sync.WaitGroup
	for sh := 0; sh < nshards; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			rp := engines[sh]
			for chunk := range chans[sh] {
				for i := range chunk {
					rp.step(chunk[i])
				}
				if progress != nil {
					progress.counts[sh].Add(int64(len(chunk)))
				}
				pool.Put(chunk[:0])
			}
		}(sh)
	}

	pending := make([][]trace.Request, nshards)
	for i := range pending {
		pending[i] = pool.Get().([]trace.Request)
	}
	flush := func(sh int) {
		if len(pending[sh]) == 0 {
			return
		}
		chans[sh] <- pending[sh]
		pending[sh] = pool.Get().([]trace.Request)
	}

	buf := make([]trace.Request, trace.StreamBatchSize)
	var streamErr error
	for {
		n, err := s.Next(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			streamErr = err
			break
		}
		for i := 0; i < n; i++ {
			r := buf[i]
			sh := int(r.Client) % nshards
			r.Client /= nshards // shard-local client ID
			pending[sh] = append(pending[sh], r)
			if len(pending[sh]) == shardChunkSize {
				flush(sh)
			}
		}
	}
	for sh := 0; sh < nshards; sh++ {
		flush(sh)
		close(chans[sh])
	}
	wg.Wait()
	return streamErr
}
