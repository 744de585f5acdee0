// Federation sweep mode: bring up an in-process cluster of N federated
// proxies sharing one origin, pin each closed-loop client to its
// rendezvous-hash home proxy, and report aggregate throughput, the
// aggregate hit ratio, and the cross-proxy resolution economics (sibling
// relays, Bloom false positives, digest traffic). -proxysweep runs the
// same workload at several cluster widths and gates the scaling claim:
// aggregate RPS must grow with proxy count while the aggregate hit ratio
// holds, because the digest tier turns N private caches into one
// population-wide document pool.
package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"baps/internal/proxy"
)

// fedProxyBrief is one proxy's corner of a federation run report.
type fedProxyBrief struct {
	Proxy            string  `json:"proxy"`
	Clients          int     `json:"clients"`
	Requests         int64   `json:"requests"`
	HitRatio         float64 `json:"hit_ratio"`
	ClusterFetches   int64   `json:"cluster_fetches"` // docs pulled FROM siblings
	ClusterServes    int64   `json:"cluster_serves"`  // sibling relay requests served
	ClusterServeHits int64   `json:"cluster_serve_hits"`
	LocateConfirms   int64   `json:"locate_confirms"`
	LocateFPs        int64   `json:"locate_fps"`
	DigestsSent      int64   `json:"digests_sent"`
	DigestsReceived  int64   `json:"digests_received"`
	QuarantinedSibs  int     `json:"quarantined_siblings,omitempty"`
	OriginFetchShare float64 `json:"origin_share"`
}

// fedRun is the report for one cluster width.
type fedRun struct {
	Proxies           int              `json:"proxies"`
	ClientsTotal      int              `json:"clients_total"`
	Requests          int64            `json:"requests"`
	Errors            int64            `json:"errors"`
	WallSec           float64          `json:"wall_sec"`
	AggregateRPS      float64          `json:"aggregate_rps"`
	AggregateHitRatio float64          `json:"aggregate_hit_ratio"`
	Sources           map[string]int64 `json:"sources"`
	LatencyMS         latency          `json:"latency_ms"`
	OriginFetches     int64            `json:"origin_fetches"`
	OriginFetchRate   float64          `json:"origin_fetch_rate"` // per completed request
	CrossProxyFetches int64            `json:"cross_proxy_fetches"`
	CrossProxyRate    float64          `json:"cross_proxy_rate"` // per completed request
	BloomConfirms     int64            `json:"bloom_confirms"`
	BloomFPs          int64            `json:"bloom_fps"`
	BloomFPRate       float64          `json:"bloom_fp_rate"` // FPs / (FPs + confirms)
	DigestsSent       int64            `json:"digests_sent"`
	DigestsReceived   int64            `json:"digests_received"`
	PerProxy          []fedProxyBrief  `json:"per_proxy"`
}

// fedSweep is the combined -proxysweep report with the scaling gates.
type fedSweep struct {
	Config struct {
		Sweep           []int   `json:"sweep"`
		ClientsPerProxy int     `json:"clients_per_proxy"`
		Docs            int     `json:"docs"`
		Zipf            float64 `json:"zipf"`
		Duration        string  `json:"duration"`
		PerProxyRPS     float64 `json:"per_proxy_rps"`
		DigestInterval  string  `json:"digest_interval"`
		Seed            uint64  `json:"seed"`
	} `json:"config"`
	Runs []*fedRun `json:"runs"`
	// RPSScaling is last-run aggregate RPS over first-run aggregate RPS.
	RPSScaling float64 `json:"rps_scaling"`
	// ScalingPerDoubling normalizes RPSScaling by the number of cluster
	// doublings between the first and last run (1→8 proxies = 3 doublings).
	ScalingPerDoubling float64 `json:"scaling_per_doubling"`
	// ScalingOK gates throughput scale-out. Short sweeps (up to one
	// doubling deep, e.g. 1→4) must at least double end to end; deeper
	// sweeps (1→8 and beyond) are gated per doubling at ≥1.7×, since
	// digest-exchange overhead and the shared origin eat into each
	// successive doubling.
	ScalingOK bool `json:"scaling_ok"`
	// HitRatioOK gates the widest cluster's aggregate hit ratio to within
	// 3 points of the single proxy's — federation must not trade hits for
	// throughput.
	HitRatioOK    bool    `json:"hit_ratio_ok"`
	HitRatioDelta float64 `json:"hit_ratio_delta"`
}

// parseSweep parses "1,2,4" into cluster widths.
func parseSweep(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -proxysweep element %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-proxysweep is empty")
	}
	return out, nil
}

// runFederationSweep executes the workload at each cluster width and
// computes the scaling gates against the first (narrowest) run.
func runFederationSweep(counts []int, w workload, perProxyRPS float64, digestInterval time.Duration, capacity int64) (*fedSweep, bool) {
	sw := &fedSweep{}
	sw.Config.Sweep = counts
	sw.Config.ClientsPerProxy = w.clients
	sw.Config.Docs = w.docs
	sw.Config.Zipf = w.zipfS
	sw.Config.Duration = w.duration.String()
	sw.Config.PerProxyRPS = perProxyRPS
	sw.Config.DigestInterval = digestInterval.String()
	sw.Config.Seed = w.seed
	completed := true
	for _, n := range counts {
		fmt.Fprintf(os.Stderr, "bapsload: federation run: %d proxies, %d clients, %s\n",
			n, n*w.clients, w.duration)
		run, ok := runFederationOnce(n, w, perProxyRPS, digestInterval, capacity)
		sw.Runs = append(sw.Runs, run)
		completed = completed && ok
	}
	first, last := sw.Runs[0], sw.Runs[len(sw.Runs)-1]
	if first.AggregateRPS > 0 {
		sw.RPSScaling = last.AggregateRPS / first.AggregateRPS
	}
	doublings := 0.0
	if first.Proxies > 0 && last.Proxies > first.Proxies {
		doublings = math.Log2(float64(last.Proxies) / float64(first.Proxies))
	}
	if doublings > 0 {
		sw.ScalingPerDoubling = math.Pow(sw.RPSScaling, 1/doublings)
	}
	if doublings >= 3 {
		sw.ScalingOK = sw.ScalingPerDoubling >= 1.7
	} else {
		sw.ScalingOK = len(sw.Runs) == 1 || sw.RPSScaling >= 2.0
	}
	sw.HitRatioDelta = last.AggregateHitRatio - first.AggregateHitRatio
	sw.HitRatioOK = sw.HitRatioDelta >= -0.03
	return sw, completed && sw.ScalingOK && sw.HitRatioOK
}

// runFederationOnce runs the closed loop against an n-proxy federated
// cluster and one shared origin, with w.clients clients per proxy, each
// pinned to its home proxy.
func runFederationOnce(n int, w workload, perProxyRPS float64, digestInterval time.Duration, capacity int64) (*fedRun, bool) {
	cl := startOrigin(int64(w.seed))
	defer cl.close()
	cl.startProxies(n, func(cfg *proxy.Config) {
		cfg.KeyBits = 1024
		cfg.CacheCapacity = capacity
		cfg.MaxFetchRPS = int(perProxyRPS)
		cfg.DigestInterval = digestInterval
	})
	total := n * w.clients
	home := homes(cl.urls(), total)
	client := newClient(total)
	ctx, cancel := context.WithTimeout(context.Background(), w.duration)
	defer cancel()
	t := w.loop(ctx, total, w.seed, func(ctx context.Context, c int, _ *rand.Rand, zipf *rand.Zipf) outcome {
		return fetch(ctx, client, home[c], fmt.Sprintf("%s/doc/%d", cl.originURL, zipf.Uint64()))
	})

	run := &fedRun{
		Proxies:           n,
		ClientsTotal:      total,
		Requests:          t.requests,
		Errors:            t.errors,
		WallSec:           t.wall.Seconds(),
		AggregateRPS:      t.rps(),
		AggregateHitRatio: t.hitRatio(),
		Sources:           t.sources,
		LatencyMS:         t.latency(),
		OriginFetches:     cl.origin.Fetches(),
	}
	clientCount := make(map[string]int, n)
	for _, u := range home {
		clientCount[u]++
	}
	for _, p := range cl.proxies {
		st := p.Snapshot()
		brief := fedProxyBrief{
			Proxy:            p.BaseURL(),
			Clients:          clientCount[p.BaseURL()],
			Requests:         st.Requests,
			ClusterFetches:   st.ClusterFetches,
			ClusterServes:    st.ClusterServes,
			ClusterServeHits: st.ClusterServeHits,
			LocateConfirms:   st.ClusterLocateConfirms,
			LocateFPs:        st.ClusterLocateFPs,
			DigestsSent:      st.DigestsSent,
			DigestsReceived:  st.DigestsReceived,
		}
		if st.Requests > 0 {
			hits := st.ProxyHits + st.RemoteHits + st.ClusterFetches
			brief.HitRatio = float64(hits) / float64(st.Requests)
			brief.OriginFetchShare = float64(st.OriginFetches) / float64(st.Requests)
		}
		if st.Federation != nil {
			for _, sib := range st.Federation.Siblings {
				if sib.Stale || sib.Breaker == "open" {
					brief.QuarantinedSibs++
				}
			}
		}
		run.CrossProxyFetches += st.ClusterFetches
		run.BloomConfirms += st.ClusterLocateConfirms
		run.BloomFPs += st.ClusterLocateFPs
		run.DigestsSent += st.DigestsSent
		run.DigestsReceived += st.DigestsReceived
		run.PerProxy = append(run.PerProxy, brief)
	}
	sort.Slice(run.PerProxy, func(i, j int) bool { return run.PerProxy[i].Proxy < run.PerProxy[j].Proxy })
	if completed := t.completed(); completed > 0 {
		run.OriginFetchRate = float64(run.OriginFetches) / float64(completed)
		run.CrossProxyRate = float64(run.CrossProxyFetches) / float64(completed)
	}
	if lookups := run.BloomConfirms + run.BloomFPs; lookups > 0 {
		run.BloomFPRate = float64(run.BloomFPs) / float64(lookups)
	}
	return run, t.check(fmt.Sprintf("federation run (%d proxies)", n))
}
