package baps

import (
	"context"
	"fmt"
	"net/url"

	"baps/internal/core"
	"baps/internal/proxy"
	"baps/internal/sim"
	"baps/internal/trace"
)

// LiveReplayConfig parameterizes LiveReplay.
type LiveReplayConfig struct {
	// RelativeSize sizes the proxy cache as a fraction of the trace's
	// infinite cache size; browser caches follow the average sizing rule
	// at the same fraction (default 0.10).
	RelativeSize float64
	// Forward selects the live delivery mode (default FetchForward).
	Forward proxy.ForwardMode
	// KeyBits sizes the watermark key (default 1024 — replays are about
	// caching behaviour, not cryptographic margin).
	KeyBits int
	// Verify enables watermark verification at the agents (default on).
	Verify bool
}

// LiveReplayResult compares the live system against the simulator on the
// same frozen workload.
type LiveReplayResult struct {
	Requests int64

	// Live counters, classified exactly like the simulator's.
	LiveLocalHits  int64
	LiveProxyHits  int64
	LiveRemoteHits int64
	LiveMisses     int64

	// Sim is the simulator's prediction under the matched configuration.
	Sim Result

	ProxyStats ProxyStats
}

// LiveHitRatio is the live system's overall hit ratio.
func (r *LiveReplayResult) LiveHitRatio() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.LiveLocalHits+r.LiveProxyHits+r.LiveRemoteHits) / float64(r.Requests)
}

// HitRatioGap is live minus simulated hit ratio — the validation residual
// between the two implementations of the same protocol.
func (r *LiveReplayResult) HitRatioGap() float64 {
	return r.LiveHitRatio() - r.Sim.HitRatio()
}

// LiveReplay drives a trace through the *live* browsers-aware system — a
// real origin, proxy and one browser agent per client, all over loopback
// HTTP — and runs the trace-driven simulator under the matched
// configuration. Because both sides implement the same §2 protocol on the
// same LRU substrate, their hit ratios should agree closely; the result
// reports both, and the test suite asserts the residual. Each request's
// index deltas are flushed before the next request is issued, so the live
// proxy sees every cache change as promptly as the simulator's immediate
// protocol does.
//
// Document modifications are frozen to each URL's first observed size (the
// live system, like a real 2001 proxy, has no consistency mechanism, while
// the simulator applies §3.2 staleness — freezing removes the semantic
// difference so the comparison is exact). Keep the trace small: every
// client becomes a live HTTP agent and every request a real round trip.
func LiveReplay(tr *Trace, cfg LiveReplayConfig) (*LiveReplayResult, error) {
	if cfg.RelativeSize == 0 {
		cfg.RelativeSize = 0.10
	}
	if cfg.KeyBits == 0 {
		cfg.KeyBits = 1024
	}

	frozen := freezeSizes(tr)
	st := trace.Compute(frozen)

	proxyCap := int64(cfg.RelativeSize * float64(st.InfiniteCacheBytes))
	browserCap := int64(cfg.RelativeSize * float64(st.AvgClientInfiniteBytes()))

	pcfg := proxy.DefaultConfig()
	pcfg.CacheCapacity = proxyCap
	pcfg.KeyBits = cfg.KeyBits
	pcfg.Forward = cfg.Forward
	cluster, err := StartCluster(ClusterConfig{
		Agents: frozen.NumClients,
		Proxy:  pcfg,
		MutateAgent: func(i int, ac *AgentConfig) {
			ac.CacheCapacity = browserCap
			ac.Verify = cfg.Verify
		},
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	out := &LiveReplayResult{Requests: int64(len(frozen.Requests))}
	ctx := context.Background()
	for _, r := range frozen.Requests {
		liveURL := fmt.Sprintf("%s?size=%d", cluster.DocURL("/t/"+url.PathEscape(r.URL)), r.Size)
		agent := cluster.Agents[r.Client]
		_, src, err := agent.Get(ctx, liveURL)
		if err == nil {
			err = agent.FlushIndex()
		}
		if err != nil {
			return nil, fmt.Errorf("baps: live replay: client %d, %s: %w", r.Client, r.URL, err)
		}
		switch src {
		case SourceLocal:
			out.LiveLocalHits++
		case SourceProxy:
			out.LiveProxyHits++
		case SourceRemote:
			out.LiveRemoteHits++
		default:
			out.LiveMisses++
		}
	}
	out.ProxyStats = cluster.Proxy.Snapshot()

	scfg := sim.DefaultConfig(BrowsersAware)
	scfg.RelativeSize = cfg.RelativeSize
	scfg.Sizing = sim.SizingAverage
	if cfg.Forward == proxy.FetchForward {
		scfg.ForwardMode = core.FetchForward
		scfg.ProxyCachesPeerDocs = true
	} else {
		// Direct and onion forwarding bypass the proxy cache.
		scfg.ForwardMode = core.DirectForward
		scfg.ProxyCachesPeerDocs = false
	}
	res, err := sim.Run(frozen, &st, scfg)
	if err != nil {
		return nil, err
	}
	out.Sim = res
	return out, nil
}

// freezeSizes pins every URL to its first observed size, removing origin
// modifications from the workload.
func freezeSizes(tr *Trace) *Trace {
	first := make(map[string]int64)
	out := &Trace{Name: tr.Name + "-frozen", NumClients: tr.NumClients}
	out.Requests = make([]Request, len(tr.Requests))
	for i, r := range tr.Requests {
		if s, ok := first[r.URL]; ok {
			r.Size = s
		} else {
			first[r.URL] = r.Size
		}
		out.Requests[i] = r
	}
	return out
}
