// Command bapsload is a closed-loop load generator for the live
// browsers-aware proxy: N client goroutines issue GET /fetch requests over a
// Zipf-distributed document population and report throughput, latency
// percentiles, and the per-source hit breakdown as JSON.
//
// Usage:
//
//	bapsload -proxy http://127.0.0.1:8081 -origin http://127.0.0.1:8080 \
//	         [-clients 32] [-docs 20000] [-zipf 1.2] [-duration 30s] [-rps 0]
//	bapsload -inprocess [-clients 32] ...   # self-contained loopback cluster
//	bapsload -proxysweep "1,2,4" [-proxyrps 1200] [-digestinterval 250ms] ...
//	                                        # federated scale-out sweep (§13)
//	bapsload -modrate 6 [-proxies 2] ...    # invalidation pipeline under churn (§14)
//	bapsload -soak [-agenthosts 8] ...      # hosted-agent fleet soak (§15)
//
// Closed loop: each client waits for its response before issuing the next
// request, so offered load adapts to the system's capacity. -rps > 0 adds a
// global pacer that caps the aggregate request rate. -inprocess brings up an
// origin and a proxy on loopback inside this process, so a single command
// measures the stack end to end.
//
// Every scenario runs on one harness (harness.go): the same loopback cluster,
// the same closed loop and the same tally. A scenario chooses the proxy
// configuration, what one request is and its gates; a run or leg in which no
// request completed fails it, and the exit status is 1 when a gate fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"time"

	"baps/internal/browser"
	"baps/internal/proxy"
)

// result is the JSON report printed on stdout.
type result struct {
	Config struct {
		Proxy    string  `json:"proxy"`
		Origin   string  `json:"origin"`
		Clients  int     `json:"clients"`
		Docs     int     `json:"docs"`
		Zipf     float64 `json:"zipf"`
		Duration string  `json:"duration"`
		TargetRPS
	} `json:"config"`
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
	Bytes     int64   `json:"bytes"`
	WallSec   float64 `json:"wall_sec"`
	RPS       float64 `json:"rps"`
	MBPerSec  float64 `json:"mb_per_sec"`
	LatencyMS latency `json:"latency_ms"`
	// Sources breaks completed requests down by X-BAPS-Source (proxy /
	// remote / origin) as reported per response.
	Sources map[string]int64 `json:"sources"`
	// ProxyStats is the proxy's own /stats snapshot after the run
	// (coalescing, cache, and breaker counters), when reachable.
	ProxyStats *proxy.Stats `json:"proxy_stats,omitempty"`
	// OriginFetches is the origin's served-request count after the run
	// (in-process mode only): with coalescing and caching working, this
	// stays far below Requests.
	OriginFetches int64 `json:"origin_fetches,omitempty"`

	// Index-maintenance accounting (agent-driven runs, -agents set).
	// IndexRequests sums the index sub-batches the proxy accepted (delta
	// batches + full syncs), snapshotted after the agents close so drained
	// final batches are included.
	IndexRequests        int64 `json:"index_requests,omitempty"`
	IndexPublishFailures int64 `json:"index_publish_failures,omitempty"`
	// NonLocalFetches counts requests that left the browser cache — each
	// one can mutate the directory, so it is the natural denominator for
	// index-maintenance overhead.
	NonLocalFetches   int64   `json:"non_local_fetches,omitempty"`
	IndexReqsPerFetch float64 `json:"index_requests_per_fetch,omitempty"`
	AgentLocalHits    int64   `json:"agent_local_hits,omitempty"`

	// Restart carries the kill/restart acceptance numbers (-restartat runs).
	Restart *restartReport `json:"restart,omitempty"`
}

// TargetRPS keeps the zero value out of the report when unlimited.
type TargetRPS struct {
	RPS float64 `json:"target_rps,omitempty"`
}

func main() {
	proxyURL := flag.String("proxy", "", "proxy base URL (required unless -inprocess)")
	originURL := flag.String("origin", "", "origin base URL (required unless -inprocess)")
	clients := flag.Int("clients", 32, "concurrent closed-loop clients")
	docs := flag.Int("docs", 20000, "distinct documents in the workload")
	zipfS := flag.Float64("zipf", 1.2, "Zipf skew (s > 1; higher = hotter head)")
	duration := flag.Duration("duration", 30*time.Second, "measurement window")
	targetRPS := flag.Float64("rps", 0, "aggregate request-rate cap (0 = unlimited)")
	inprocess := flag.Bool("inprocess", false, "run origin + proxy on loopback inside this process")
	seed := flag.Uint64("seed", 1, "workload PRNG seed")
	agentMode := flag.Bool("agents", false, "drive full browser agents (local cache, peer server, batched index publishing) instead of raw /fetch clients")
	agentCache := flag.Int64("agentcache", 2<<20, "per-agent browser cache bytes (-agents runs; small caches force evictions)")
	dataDir := flag.String("datadir", "", "in-process proxy disk-tier directory (enables crash-safe persistence)")
	capacity := flag.Int64("capacity", 256<<20, "in-process proxy cache capacity in bytes")
	restartAt := flag.Duration("restartat", 0, "SIGKILL the in-process proxy this far into the run, then restart it (0 disables; requires -inprocess and -datadir)")
	restartDown := flag.Duration("restartdown", 2*time.Second, "downtime between the kill and the restart")
	proxies := flag.Int("proxies", 0, "federation mode: in-process cluster of N digest-exchanging proxies (clients are per proxy)")
	proxySweep := flag.String("proxysweep", "", "federation sweep: comma-separated cluster widths, e.g. \"1,2,4\" (implies -proxies)")
	proxyRPS := flag.Float64("proxyrps", 1200, "federation mode: per-proxy fetch admission cap, modeling one machine per proxy")
	digestInterval := flag.Duration("digestinterval", 250*time.Millisecond, "federation mode: sibling Bloom-digest push period")
	modRate := flag.Float64("modrate", 0, "churn mode: origin modifications per second; runs the workload against a federated cluster twice (pipeline off, then on) and gates the stale-serve reduction")
	agentHosts := flag.Int("agenthosts", 0, "lean agent mode: multiplex -agents agents across N AgentHosts (0 = one host per agent)")
	agentsPerHost := flag.Int("agentsperhost", 0, "-soak: hosted agents per AgentHost (default 6250)")
	soak := flag.Bool("soak", false, "soak mode: AgentHost fleet under sustained load with churn; gates hit-ratio parity and RSS per agent (see -agenthosts/-agentsperhost/-churn)")
	churnFrac := flag.Float64("churn", 0.3, "-soak: fraction of the fleet killed and replaced over the run")
	docSize := flag.Int("docsize", 1024, "-soak: document body size in bytes")
	parityAgents := flag.Int("parityagents", 48, "-soak: client count for the standalone-vs-hosted hit-ratio parity legs")
	soakCompare := flag.String("soakcompare", "", "-soak: previous soak report JSON to gate RPS/p99/RSS-per-agent against")
	flag.Parse()

	if *zipfS <= 1 || *clients <= 0 || *docs <= 0 {
		usage("-zipf must be > 1 and -clients/-docs positive")
	}
	w := workload{clients: *clients, docs: *docs, zipfS: *zipfS, duration: *duration, seed: *seed}

	switch {
	case *soak:
		opts := soakOpts{
			workload:   w,
			hosts:      *agentHosts,
			perHost:    *agentsPerHost,
			parity:     *parityAgents,
			docSize:    *docSize,
			churn:      *churnFrac,
			modRate:    *modRate,
			capacity:   *capacity,
			agentCache: *agentCache,
			compare:    *soakCompare,
		}
		if opts.hosts <= 0 {
			opts.hosts = 8
		}
		if opts.perHost <= 0 {
			opts.perHost = 6250
		}
		rep := runSoak(opts)
		emit(rep, rep.OK)

	case *modRate > 0:
		n := *proxies
		if n <= 0 {
			n = 2
		}
		emit(runInvalidationScenario(n, w, *modRate, *capacity))

	case *proxies > 0 || *proxySweep != "":
		counts := []int{*proxies}
		if *proxySweep != "" {
			var err error
			if counts, err = parseSweep(*proxySweep); err != nil {
				usage(err.Error())
			}
		}
		emit(runFederationSweep(counts, w, *proxyRPS, *digestInterval, *capacity))

	default:
		var plan *restartPlan
		if *restartAt > 0 {
			if !*inprocess || *dataDir == "" {
				usage("-restartat requires -inprocess and -datadir")
			}
			if *restartAt+*restartDown >= *duration {
				usage("-restartat + -restartdown must leave a recovery window inside -duration")
			}
			plan = &restartPlan{at: *restartAt, down: *restartDown}
		}
		if *agentHosts > 0 && !*agentMode {
			usage("-agenthosts requires -agents (hosted clients are full browser agents)")
		}
		var cl *cluster
		if *inprocess {
			cl = startOrigin(1)
			defer cl.close()
			cl.startProxies(1, func(cfg *proxy.Config) {
				cfg.KeyBits = 2048
				cfg.CacheCapacity = *capacity
				cfg.DataDir = *dataDir
			})
			*originURL, *proxyURL = cl.originURL, cl.proxyAt(0).BaseURL()
		}
		if *proxyURL == "" || *originURL == "" {
			usage("-proxy and -origin are required (or use -inprocess)")
		}
		emit(run(cl, *proxyURL, *originURL, w, *targetRPS, *agentMode, *agentCache, *agentHosts, plan))
	}
}

// run drives the closed loop against the proxy at proxyURL. cl is the
// in-process cluster behind it, nil for an external one.
func run(cl *cluster, proxyURL, originURL string, w workload, targetRPS float64, agentMode bool, agentCache int64, agentHosts int, plan *restartPlan) (*result, bool) {
	client := newClient(w.clients)

	// Agent-driven mode: every closed-loop client is a full browser agent
	// (cache + peer server + index maintenance), so the run measures the
	// index protocol's overhead, not just raw /fetch throughput.
	var agents []*browser.Agent
	var hosts []*browser.AgentHost
	if agentMode {
		cfg := browser.DefaultConfig(proxyURL)
		cfg.CacheCapacity = agentCache
		cfg.Timeout = 30 * time.Second
		// Skip RSA watermark verification: the run isolates index-
		// maintenance cost, and per-document signature checks would
		// dominate the client CPU budget.
		cfg.Verify = false
		if agentHosts > 0 {
			// Lean agent mode: clients ride round-robin on shared
			// AgentHosts — one listener, one transport, one index
			// publisher per host instead of per agent.
			for h := 0; h < agentHosts; h++ {
				host, err := browser.NewHost(browser.HostConfig{Agent: cfg})
				if err != nil {
					fatalf("agent host %d: %v", h, err)
				}
				hosts = append(hosts, host)
			}
			for c := 0; c < w.clients; c++ {
				ag, err := hosts[c%agentHosts].Spawn()
				if err != nil {
					fatalf("hosted agent %d: %v", c, err)
				}
				agents = append(agents, ag)
			}
		} else {
			agents = newAgents(cfg, w.clients)
		}
	}

	// Global pacer for -rps: a token drops every 1/rps seconds; each
	// request consumes one. Closed-loop clients block on it.
	var pace <-chan time.Time
	if targetRPS > 0 {
		pacer := time.NewTicker(time.Duration(float64(time.Second) / targetRPS))
		defer pacer.Stop()
		pace = pacer.C
	}

	ctx, cancel := context.WithTimeout(context.Background(), w.duration)
	defer cancel()

	var rc *restartController
	if plan != nil {
		rc = &restartController{plan: *plan, cl: cl}
		go rc.run(ctx)
	}

	t := w.loop(ctx, w.clients, w.seed, func(ctx context.Context, c int, _ *rand.Rand, zipf *rand.Zipf) outcome {
		if pace != nil {
			select {
			case <-pace:
			case <-ctx.Done():
				return outcome{}
			}
		}
		docURL := fmt.Sprintf("%s/doc/%d", originURL, zipf.Uint64())
		var o outcome
		if agents != nil {
			o = get(ctx, agents[c], docURL)
		} else {
			o = fetch(ctx, client, proxyURL, docURL)
		}
		if !o.ok && plan != nil {
			// Proxy downtime mid-restart: back off instead of
			// spinning a connection-refused error storm.
			select {
			case <-time.After(100 * time.Millisecond):
			case <-ctx.Done():
			}
		}
		return o
	})

	res := &result{
		Requests:  t.requests,
		Errors:    t.errors,
		Bytes:     t.bytes,
		WallSec:   t.wall.Seconds(),
		RPS:       t.rps(),
		LatencyMS: t.latency(),
		Sources:   t.sources,
	}
	if res.WallSec > 0 {
		res.MBPerSec = float64(res.Bytes) / (1 << 20) / res.WallSec
	}
	res.Config.Proxy = proxyURL
	res.Config.Origin = originURL
	res.Config.Clients = w.clients
	res.Config.Docs = w.docs
	res.Config.Zipf = w.zipfS
	res.Config.Duration = w.duration.String()
	res.Config.RPS = targetRPS
	if agents != nil {
		// Close first (drains the publishers), then snapshot, so the
		// index-request totals include the final flushed batches.
		for _, ag := range agents {
			ag.Close()
		}
		sum := sumMetrics(agents)
		for _, h := range hosts {
			h.Close() // agents are already removed; stops listener + publisher
		}
		res.IndexRequests = sum.IndexSyncs + sum.IndexBatches
		res.IndexPublishFailures = sum.IndexPublishFailures
		res.AgentLocalHits = sum.LocalHits
		res.NonLocalFetches = sum.Requests - sum.LocalHits
		if res.NonLocalFetches > 0 {
			res.IndexReqsPerFetch = float64(res.IndexRequests) / float64(res.NonLocalFetches)
		}
	}
	res.ProxyStats = fetchProxyStats(proxyURL)
	if cl != nil {
		res.OriginFetches = cl.origin.Fetches()
	}
	if rc != nil {
		res.Restart = rc.report(res.ProxyStats)
	}
	return res, t.check("run")
}

// newAgents starts n agents from cfg, each on a host of its own.
func newAgents(cfg browser.Config, n int) []*browser.Agent {
	agents := make([]*browser.Agent, n)
	for i := range agents {
		a, err := browser.New(cfg)
		if err != nil {
			fatalf("agent %d: %v", i, err)
		}
		agents[i] = a
	}
	return agents
}

// sumMetrics totals the agents' counters.
func sumMetrics(agents []*browser.Agent) browser.Metrics {
	var sum browser.Metrics
	for _, a := range agents {
		m := a.Snapshot()
		sum.Requests += m.Requests
		sum.LocalHits += m.LocalHits
		sum.IndexSyncs += m.IndexSyncs
		sum.IndexBatches += m.IndexBatches
		sum.IndexPublishFailures += m.IndexPublishFailures
	}
	return sum
}

// fetchProxyStats snapshots the proxy's /stats after the run (best-effort).
func fetchProxyStats(proxyURL string) *proxy.Stats {
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(proxyURL + "/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		if resp != nil {
			resp.Body.Close()
		}
		return nil
	}
	defer resp.Body.Close()
	var st proxy.Stats
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		return nil
	}
	st.PeerHealth = nil // per-peer detail is noise in a load report
	return &st
}
