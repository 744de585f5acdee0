package main

// The harness every scenario shares: a loopback cluster (one origin and its
// proxies inside this process), one closed loop of Zipf workers, the tally
// it merges into, the origin modifier and the report writer.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"baps/internal/browser"
	"baps/internal/federation"
	"baps/internal/origin"
	"baps/internal/proxy"
)

// cluster is one origin and its proxies on loopback. The restart controller
// swaps a proxy while workers run, so proxies is behind mu.
type cluster struct {
	origin    *origin.Server
	originURL string
	originSrv *http.Server
	pcfg      proxy.Config // every proxy's config; a restart re-creates one from it

	mu      sync.Mutex
	proxies []*proxy.Server
}

// startOrigin serves an origin built from seed on a loopback port.
func startOrigin(seed int64) *cluster {
	o := origin.New(seed)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("origin: %v", err)
	}
	srv := &http.Server{Handler: o.Handler()}
	go srv.Serve(ln)
	return &cluster{origin: o, originURL: "http://" + ln.Addr().String(), originSrv: srv}
}

// startProxies starts n proxies from proxy.DefaultConfig with mutate applied
// and, when n > 1, joins them into a full sibling mesh.
func (c *cluster) startProxies(n int, mutate func(*proxy.Config)) {
	c.pcfg = proxy.DefaultConfig()
	mutate(&c.pcfg)
	for i := 0; i < n; i++ {
		p, err := proxy.New(c.pcfg)
		if err == nil {
			err = p.Start("127.0.0.1:0")
		}
		if err != nil {
			fatalf("proxy %d: %v", i, err)
		}
		c.proxies = append(c.proxies, p)
	}
	if n > 1 {
		urls := c.urls()
		for i, p := range c.proxies {
			peers := append(append([]string(nil), urls[:i]...), urls[i+1:]...)
			if err := p.JoinCluster(peers); err != nil {
				fatalf("proxy %d: join: %v", i, err)
			}
		}
	}
}

func (c *cluster) proxyAt(i int) *proxy.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.proxies[i]
}

func (c *cluster) setProxy(i int, p *proxy.Server) {
	c.mu.Lock()
	c.proxies[i] = p
	c.mu.Unlock()
}

func (c *cluster) urls() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.proxies))
	for i, p := range c.proxies {
		out[i] = p.BaseURL()
	}
	return out
}

func (c *cluster) close() {
	c.mu.Lock()
	for _, p := range c.proxies {
		p.Close()
	}
	c.mu.Unlock()
	c.originSrv.Close()
}

// homes pins each of n clients to its rendezvous-hash home proxy — the
// placement a client-side stub or front balancer would compute — so adding
// proxies re-shards the population instead of mirroring it.
func homes(urls []string, n int) []string {
	out := make([]string, n)
	for c := range out {
		out[c] = federation.Owner(urls, fmt.Sprintf("client-%d", c))
	}
	return out
}

// workload is the closed loop every scenario drives: clients workers, each
// waiting for its response before the next request, over a Zipf(zipfS)
// population of docs documents for duration.
type workload struct {
	clients  int
	docs     int
	zipfS    float64
	duration time.Duration
	seed     uint64
}

// request issues worker c's next request. It draws the document from zipf
// (and anything else from rng, which zipf also draws from) in its own order.
type request func(ctx context.Context, c int, rng *rand.Rand, zipf *rand.Zipf) outcome

// loop runs workers closed-loop workers until ctx ends and returns their
// merged tally. Worker c draws from its own PCG stream (seed,
// c*0x9E3779B9+1): the streams are decorrelated, and a seed fixes each one.
func (w workload) loop(ctx context.Context, workers int, seed uint64, req request) *tally {
	parts := make([]tally, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(c)*0x9E3779B9+1))
			zipf := rand.NewZipf(rng, w.zipfS, 1, uint64(w.docs-1))
			parts[c].sources = make(map[string]int64)
			for ctx.Err() == nil {
				parts[c].add(req(ctx, c, rng, zipf))
			}
		}()
	}
	wg.Wait()
	t := &tally{wall: time.Since(start), sources: make(map[string]int64)}
	for i := range parts {
		p := &parts[i]
		t.requests += p.requests
		t.errors += p.errors
		t.bytes += p.bytes
		t.stale += p.stale
		t.lat = append(t.lat, p.lat...)
		for s, n := range p.sources {
			t.sources[s] += n
		}
	}
	return t
}

// outcome is one request as its worker saw it.
type outcome struct {
	ok      bool // completed: a 200 whose body was read in full
	failed  bool // failed while the window was still open; counted as an error
	lat     time.Duration
	bytes   int64
	source  string
	version int64 // X-BAPS-Version of a /fetch answer
	stale   bool
}

// fail is the outcome of a request that did not complete: an error unless
// the window had already closed under it.
func fail(ctx context.Context) outcome { return outcome{failed: ctx.Err() == nil} }

// fetch requests docURL through the /fetch route of the proxy at proxyURL.
func fetch(ctx context.Context, c *http.Client, proxyURL, docURL string) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		proxyURL+"/fetch?url="+url.QueryEscape(docURL), nil)
	if err != nil {
		return outcome{failed: true}
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return fail(ctx)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fail(ctx)
	}
	src := resp.Header.Get(proxy.HeaderSource)
	if src == "" {
		src = "unknown"
	}
	v, _ := strconv.ParseInt(resp.Header.Get(proxy.HeaderVersion), 10, 64)
	return outcome{ok: true, lat: time.Since(t0), bytes: n, source: src, version: v}
}

// get requests docURL through a browser agent (local / proxy / remote /
// origin).
func get(ctx context.Context, ag *browser.Agent, docURL string) outcome {
	t0 := time.Now()
	body, src, err := ag.Get(ctx, docURL)
	if err != nil {
		return fail(ctx)
	}
	return outcome{ok: true, lat: time.Since(t0), bytes: int64(len(body)), source: string(src)}
}

// newClient is the load client: one keep-alive transport whose pool depth
// scales with the workers sharing it.
func newClient(workers int) *http.Client {
	return &http.Client{Timeout: 30 * time.Second, Transport: proxy.NewTransport(workers)}
}

// tally is one worker's count, and after the merge one run's or leg's. The
// workers never share one, so the hot loop takes no lock.
type tally struct {
	requests, errors, bytes, stale int64
	sources                        map[string]int64
	lat                            []time.Duration
	wall                           time.Duration
}

func (t *tally) add(o outcome) {
	switch {
	case o.ok:
		t.requests++
		t.bytes += o.bytes
		t.sources[o.source]++
		t.lat = append(t.lat, o.lat)
		if o.stale {
			t.stale++
		}
	case o.failed:
		t.requests++
		t.errors++
	}
}

func (t *tally) completed() int64 { return t.requests - t.errors }

func (t *tally) rps() float64 {
	if t.wall <= 0 {
		return 0
	}
	return float64(t.requests) / t.wall.Seconds()
}

// hitRatio is the share of completed requests the origin did not serve.
func (t *tally) hitRatio() float64 {
	if t.completed() == 0 {
		return 0
	}
	return float64(t.completed()-t.sources[proxy.SourceOrigin]) / float64(t.completed())
}

// check is the rule every gate shares: a run or leg in which no request
// completed fails its scenario, whatever its other numbers say (a proxy
// that never answers reports 0 requests and 0 errors).
func (t *tally) check(name string) bool {
	if t.completed() > 0 {
		return true
	}
	fmt.Fprintf(os.Stderr, "bapsload: %s: no request completed\n", name)
	return false
}

type latency struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// latency sorts the merged latencies and extracts the report percentiles.
func (t *tally) latency() latency {
	lat := t.lat
	if len(lat) == 0 {
		return latency{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	pct := func(p float64) time.Duration { return lat[int(p*float64(len(lat)-1))] }
	return latency{
		Mean: ms(sum / time.Duration(len(lat))),
		P50:  ms(pct(0.50)),
		P90:  ms(pct(0.90)),
		P95:  ms(pct(0.95)),
		P99:  ms(pct(0.99)),
		Max:  ms(lat[len(lat)-1]),
	}
}

// modify bumps Zipf-chosen documents under prefix at rate per second until
// ctx ends. Its stream (seed, 0xC0FFEE) has the workload's skew but not its
// sequence, so churn lands mostly on documents the workers request. The
// returned func waits for it to stop and says how many it modified.
func modify(ctx context.Context, o *origin.Server, prefix string, w workload, rate float64) func() int64 {
	done := make(chan int64, 1)
	go func() {
		rng := rand.New(rand.NewPCG(w.seed, 0xC0FFEE))
		zipf := rand.NewZipf(rng, w.zipfS, 1, uint64(w.docs-1))
		tick := time.NewTicker(time.Duration(float64(time.Second) / rate))
		defer tick.Stop()
		var n int64
		for {
			select {
			case <-ctx.Done():
				done <- n
				return
			case <-tick.C:
				o.Modify(fmt.Sprintf("%s/doc/%d", prefix, zipf.Uint64()))
				n++
			}
		}
	}()
	return func() int64 { return <-done }
}

// emit writes report as indented JSON on stdout and exits 1 unless ok.
func emit(report any, ok bool) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(report)
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bapsload: "+format+"\n", args...)
	os.Exit(1)
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "bapsload: "+msg)
	os.Exit(2)
}
