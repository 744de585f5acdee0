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
//
// Closed loop: each client waits for its response before issuing the next
// request, so offered load adapts to the system's capacity. -rps > 0 adds a
// global pacer that caps the aggregate request rate. -inprocess brings up an
// origin and a proxy on loopback inside this process, so a single command
// measures the stack end to end.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"sync"
	"time"

	"baps/internal/browser"
	"baps/internal/origin"
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

type latency struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// clientStats is one worker goroutine's tally; merged after the run so the
// hot loop never takes a shared lock.
type clientStats struct {
	lat     []time.Duration
	errs    int64
	bytes   int64
	sources map[string]int64
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
	agentHosts := flag.Int("agenthosts", 0, "lean agent mode: multiplex -agents agents across N AgentHosts instead of one server per agent (0 = standalone agents)")
	agentsPerHost := flag.Int("agentsperhost", 0, "-soak: hosted agents per AgentHost (default 6250)")
	soak := flag.Bool("soak", false, "soak mode: AgentHost fleet under sustained load with churn; gates hit-ratio parity and RSS per agent (see -agenthosts/-agentsperhost/-churn)")
	churnFrac := flag.Float64("churn", 0.3, "-soak: fraction of the fleet killed and replaced over the run")
	docSize := flag.Int("docsize", 1024, "-soak: document body size in bytes")
	parityAgents := flag.Int("parityagents", 48, "-soak: client count for the standalone-vs-hosted hit-ratio parity legs")
	soakCompare := flag.String("soakcompare", "", "-soak: previous soak report JSON to gate RPS/p99/RSS-per-agent against")
	flag.Parse()

	if *soak {
		if *zipfS <= 1 || *docs <= 0 {
			fmt.Fprintln(os.Stderr, "bapsload: -zipf must be > 1 and -docs positive")
			os.Exit(2)
		}
		opts := soakOpts{
			hosts:      *agentHosts,
			perHost:    *agentsPerHost,
			parity:     *parityAgents,
			workers:    *clients,
			docs:       *docs,
			zipfS:      *zipfS,
			docSize:    *docSize,
			duration:   *duration,
			churn:      *churnFrac,
			modRate:    *modRate,
			capacity:   *capacity,
			agentCache: *agentCache,
			seed:       *seed,
			compare:    *soakCompare,
		}
		if opts.hosts <= 0 {
			opts.hosts = 8
		}
		if opts.perHost <= 0 {
			opts.perHost = 6250
		}
		rep := runSoak(opts)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
		if !rep.OK {
			os.Exit(1)
		}
		return
	}

	if *modRate > 0 {
		n := *proxies
		if n <= 0 {
			n = 2
		}
		if *zipfS <= 1 || *clients <= 0 || *docs <= 0 {
			fmt.Fprintln(os.Stderr, "bapsload: -zipf must be > 1 and -clients/-docs positive")
			os.Exit(2)
		}
		rep := runInvalidationScenario(n, *clients, *docs, *zipfS, *duration, *modRate, *capacity, *seed)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
		if !rep.StaleOK || !rep.OriginOK {
			os.Exit(1)
		}
		return
	}

	if *proxies > 0 || *proxySweep != "" {
		counts := []int{*proxies}
		if *proxySweep != "" {
			var err error
			if counts, err = parseSweep(*proxySweep); err != nil {
				fmt.Fprintf(os.Stderr, "bapsload: %v\n", err)
				os.Exit(2)
			}
		}
		if *zipfS <= 1 || *clients <= 0 || *docs <= 0 {
			fmt.Fprintln(os.Stderr, "bapsload: -zipf must be > 1 and -clients/-docs positive")
			os.Exit(2)
		}
		sw := runFederationSweep(counts, *clients, *docs, *zipfS, *duration, *proxyRPS, *digestInterval, *capacity, *seed)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(sw)
		if !sw.ScalingOK || !sw.HitRatioOK {
			os.Exit(1)
		}
		return
	}

	var plan *restartPlan
	if *restartAt > 0 {
		if !*inprocess || *dataDir == "" {
			fmt.Fprintln(os.Stderr, "bapsload: -restartat requires -inprocess and -datadir")
			os.Exit(2)
		}
		if *restartAt+*restartDown >= *duration {
			fmt.Fprintln(os.Stderr, "bapsload: -restartat + -restartdown must leave a recovery window inside -duration")
			os.Exit(2)
		}
		plan = &restartPlan{at: *restartAt, down: *restartDown}
	}

	if *inprocess {
		oURL, pURL, shutdown, err := startCluster(*dataDir, *capacity)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bapsload: in-process cluster: %v\n", err)
			os.Exit(1)
		}
		defer shutdown()
		*originURL, *proxyURL = oURL, pURL
	}
	if *proxyURL == "" || *originURL == "" {
		fmt.Fprintln(os.Stderr, "bapsload: -proxy and -origin are required (or use -inprocess)")
		os.Exit(2)
	}
	if *zipfS <= 1 {
		fmt.Fprintln(os.Stderr, "bapsload: -zipf must be > 1")
		os.Exit(2)
	}
	if *clients <= 0 || *docs <= 0 {
		fmt.Fprintln(os.Stderr, "bapsload: -clients and -docs must be positive")
		os.Exit(2)
	}

	if *agentHosts > 0 && !*agentMode {
		fmt.Fprintln(os.Stderr, "bapsload: -agenthosts requires -agents (hosted clients are full browser agents)")
		os.Exit(2)
	}

	res := run(*proxyURL, *originURL, *clients, *docs, *zipfS, *duration, *targetRPS, *seed, *agentMode, *agentCache, *agentHosts, plan)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(res)
	if res.Errors > 0 && res.Requests == res.Errors {
		os.Exit(1) // nothing succeeded; the exit code should say so
	}
}

// startCluster brings up a loopback origin and proxy, returning their URLs
// and a shutdown func. A non-empty datadir enables the proxy's crash-safe
// disk tier (and makes -restartat possible).
func startCluster(datadir string, capacity int64) (originURL, proxyURL string, shutdown func(), err error) {
	o := origin.New(1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", nil, err
	}
	originSrv := &http.Server{Handler: o.Handler()}
	go originSrv.Serve(ln)
	originURL = "http://" + ln.Addr().String()

	cfg := proxy.DefaultConfig()
	cfg.KeyBits = 2048
	cfg.CacheCapacity = capacity
	cfg.DataDir = datadir
	p, err := proxy.New(cfg)
	if err != nil {
		originSrv.Close()
		return "", "", nil, err
	}
	if err := p.Start("127.0.0.1:0"); err != nil {
		originSrv.Close()
		return "", "", nil, err
	}
	inproc.origin = o
	inproc.pcfg = cfg
	inproc.setProxy(p)
	return originURL, p.BaseURL(), func() {
		inproc.getProxy().Close()
		originSrv.Close()
	}, nil
}

// inprocState exposes the in-process servers to the reporter and the
// restart controller (zero outside -inprocess runs). The proxy handle is
// swapped on restart, so access goes through the mutex.
type inprocState struct {
	mu     sync.Mutex
	origin *origin.Server
	proxy  *proxy.Server
	pcfg   proxy.Config
}

var inproc inprocState

func (i *inprocState) setProxy(p *proxy.Server) {
	i.mu.Lock()
	i.proxy = p
	i.mu.Unlock()
}

func (i *inprocState) getProxy() *proxy.Server {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.proxy
}

func run(proxyURL, originURL string, clients, docs int, zipfS float64, duration time.Duration, targetRPS float64, seed uint64, agentMode bool, agentCache int64, agentHosts int, plan *restartPlan) *result {
	// One shared keep-alive transport: all clients hit the same proxy
	// host, so the pool depth scales with the client count.
	transport := proxy.NewTransport(clients)
	httpClient := &http.Client{Timeout: 30 * time.Second, Transport: transport}

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
					fmt.Fprintf(os.Stderr, "bapsload: agent host %d: %v\n", h, err)
					os.Exit(1)
				}
				hosts = append(hosts, host)
			}
			for c := 0; c < clients; c++ {
				ag, err := hosts[c%agentHosts].Spawn()
				if err != nil {
					fmt.Fprintf(os.Stderr, "bapsload: hosted agent %d: %v\n", c, err)
					os.Exit(1)
				}
				agents = append(agents, ag)
			}
		} else {
			for c := 0; c < clients; c++ {
				ag, err := browser.New(cfg)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bapsload: agent %d: %v\n", c, err)
					os.Exit(1)
				}
				agents = append(agents, ag)
			}
		}
	}

	// Global pacer for -rps: a token drops every 1/rps seconds; each
	// request consumes one. Closed-loop clients block on it.
	var pace <-chan time.Time
	var pacer *time.Ticker
	if targetRPS > 0 {
		pacer = time.NewTicker(time.Duration(float64(time.Second) / targetRPS))
		pace = pacer.C
		defer pacer.Stop()
	}

	ctx, cancel := context.WithTimeout(context.Background(), duration)
	defer cancel()

	var rc *restartController
	if plan != nil {
		rc = newRestartController(*plan)
		go rc.run(ctx)
	}

	stats := make([]clientStats, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &stats[c]
			st.sources = make(map[string]int64)
			// Per-client PRNG; distinct seeds keep the clients'
			// request sequences decorrelated but reproducible.
			rng := rand.New(rand.NewPCG(seed, uint64(c)*0x9E3779B9+1))
			zipf := rand.NewZipf(rng, zipfS, 1, uint64(docs-1))
			for ctx.Err() == nil {
				if pace != nil {
					select {
					case <-pace:
					case <-ctx.Done():
						return
					}
				}
				doc := zipf.Uint64()
				var ok bool
				if agents != nil {
					ok = st.doAgent(ctx, agents[c], originURL, doc)
				} else {
					ok = st.do(ctx, httpClient, proxyURL, originURL, doc)
				}
				if !ok && plan != nil {
					// Proxy downtime mid-restart: back off instead of
					// spinning a connection-refused error storm.
					select {
					case <-time.After(100 * time.Millisecond):
					case <-ctx.Done():
					}
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	res := &result{Sources: make(map[string]int64)}
	if agents != nil {
		// Close first (drains the publishers), then snapshot, so the
		// index-request totals include the final flushed batches.
		var sum browser.Metrics
		for _, ag := range agents {
			ag.Close()
			m := ag.Snapshot()
			sum.Requests += m.Requests
			sum.LocalHits += m.LocalHits
			sum.IndexSyncs += m.IndexSyncs
			sum.IndexBatches += m.IndexBatches
			sum.IndexPublishFailures += m.IndexPublishFailures
		}
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
	res.Config.Proxy = proxyURL
	res.Config.Origin = originURL
	res.Config.Clients = clients
	res.Config.Docs = docs
	res.Config.Zipf = zipfS
	res.Config.Duration = duration.String()
	res.Config.RPS = targetRPS

	var all []time.Duration
	for i := range stats {
		st := &stats[i]
		all = append(all, st.lat...)
		res.Errors += st.errs
		res.Bytes += st.bytes
		for s, n := range st.sources {
			res.Sources[s] += n
		}
	}
	res.Requests = int64(len(all)) + res.Errors
	res.WallSec = wall.Seconds()
	if res.WallSec > 0 {
		res.RPS = float64(res.Requests) / res.WallSec
		res.MBPerSec = float64(res.Bytes) / (1 << 20) / res.WallSec
	}
	res.LatencyMS = summarize(all)
	if st := fetchProxyStats(proxyURL); st != nil {
		res.ProxyStats = st
	}
	if inproc.origin != nil {
		res.OriginFetches = inproc.origin.Fetches()
	}
	if rc != nil {
		res.Restart = rc.report(res.ProxyStats)
	}
	return res
}

// do issues one /fetch and records its latency, source, and byte count.
// false means the request failed (the restart harness backs off on it).
func (st *clientStats) do(ctx context.Context, c *http.Client, proxyURL, originURL string, doc uint64) bool {
	docURL := fmt.Sprintf("%s/doc/%d", originURL, doc)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		proxyURL+"/fetch?url="+url.QueryEscape(docURL), nil)
	if err != nil {
		st.errs++
		return false
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			st.errs++
		}
		return false
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		if ctx.Err() == nil {
			st.errs++
		}
		return false
	}
	st.lat = append(st.lat, time.Since(t0))
	st.bytes += n
	src := resp.Header.Get(proxy.HeaderSource)
	if src == "" {
		src = "unknown"
	}
	st.sources[src]++
	return true
}

// doAgent issues one document request through a full browser agent,
// recording the resolution source (local / proxy / remote / origin).
func (st *clientStats) doAgent(ctx context.Context, ag *browser.Agent, originURL string, doc uint64) bool {
	docURL := fmt.Sprintf("%s/doc/%d", originURL, doc)
	t0 := time.Now()
	body, src, err := ag.Get(ctx, docURL)
	if err != nil {
		if ctx.Err() == nil {
			st.errs++
		}
		return false
	}
	st.lat = append(st.lat, time.Since(t0))
	st.bytes += int64(len(body))
	st.sources[string(src)]++
	return true
}

// summarize sorts the merged latencies and extracts the report percentiles.
func summarize(lat []time.Duration) latency {
	if len(lat) == 0 {
		return latency{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	return latency{
		Mean: ms(sum / time.Duration(len(lat))),
		P50:  ms(pct(0.50)),
		P90:  ms(pct(0.90)),
		P95:  ms(pct(0.95)),
		P99:  ms(pct(0.99)),
		Max:  ms(lat[len(lat)-1]),
	}
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
