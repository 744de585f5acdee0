package main

import (
	"bytes"
	"context"
	"crypto/md5"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"baps/internal/browser"
	"baps/internal/origin"
	"baps/internal/proxy"
)

// sizeClass is one body size and its share of the document universe, in
// twentieths.
type sizeClass struct {
	bytes int
	per20 int
}

// liveSpec is one live-plane workload: the cluster shape and the traffic
// mix. Everything here is frozen; only the request sequence follows -seed.
type liveSpec struct {
	name     string
	docs     int
	sizes    []sizeClass
	zipfS    float64
	modEvery int // an origin.Modify precedes every modEvery-th request (0 = never)
	// warmup is the untimed request count that fills the caches during
	// set-up; -1 fetches every document once (live.hot's "all resident").
	warmup int
	// openRate is the open-loop arrival rate per second (see workloads.go).
	openRate float64
	keyBits  int
	// Agent fleet (live.peer); zero hosts means raw /fetch clients.
	hosts, agentsPerHost int
	agentCache           int64
	// configure sets the proxy's cache and pipeline; dir is a private
	// temp directory.
	configure func(cfg *proxy.Config, dir string)
	// probes times, in a traced run, the layers this workload leans on.
	probes func(res *runResult, spec *liveSpec, o runOpts) error
}

// sizeOf is a pure function of the document id, not of the seed: the hot
// head keeps its sizes across seeds, so runs differ in request order only.
func (s *liveSpec) sizeOf(doc int) int {
	slot := int((uint32(doc) * 2654435761 >> 8) % 20)
	for _, c := range s.sizes {
		if slot < c.per20 {
			return c.bytes
		}
		slot -= c.per20
	}
	return s.sizes[len(s.sizes)-1].bytes
}

func docPath(doc int) string { return "/doc/" + strconv.Itoa(doc) }

// verifier checks a response body against the origin's generator: length,
// then content for (path, version, size). The digest of each (doc, version)
// is computed once and kept, so re-verifying a hot document costs one MD5
// of the received bytes.
type verifier struct {
	o    *origin.Server
	spec *liveSpec
	mu   sync.Mutex
	want map[[2]int64][md5.Size]byte
}

func (v *verifier) ok(doc int, version int64, body []byte) bool {
	size := v.spec.sizeOf(doc)
	if len(body) != size {
		return false
	}
	key := [2]int64{int64(doc), version}
	v.mu.Lock()
	want, seen := v.want[key]
	v.mu.Unlock()
	if seen {
		return md5.Sum(body) == want
	}
	expect := v.o.Body(docPath(doc), version, int64(size))
	v.mu.Lock()
	v.want[key] = md5.Sum(expect)
	v.mu.Unlock()
	return bytes.Equal(body, expect)
}

// liveCluster is every server of one live workload, in this process, on
// loopback: not a real link.
type liveCluster struct {
	spec      *liveSpec
	rec       *recorder
	origin    *origin.Server
	originSrv *http.Server
	proxy     *proxy.Server
	hosts     []*browser.AgentHost
	agents    []*browser.Agent
	client    *http.Client
	dir       string
	docURL    []string // what the proxy resolves
	fetchURL  []string // the raw client's GET
	check     *verifier
	bufs      [generators]bytes.Buffer
	closed    bool
}

// startLive brings the cluster up and warms it: everything setup_s counts.
func startLive(spec *liveSpec, seed uint64, rec *recorder, tmpRoot string) (c *liveCluster, err error) {
	c = &liveCluster{spec: spec, rec: rec}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	if c.dir, err = os.MkdirTemp(tmpRoot, spec.name+"-"); err != nil {
		return nil, err
	}

	c.origin = origin.New(1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.originSrv = &http.Server{Handler: traceOrigin(c.origin.Handler(), rec)}
	go c.originSrv.Serve(ln)
	originHost := ln.Addr().String()

	cfg := proxy.DefaultConfig()
	cfg.KeyBits = spec.keyBits
	spec.configure(&cfg, c.dir)
	if rec != nil {
		// One traced transport for both outbound classes, sized like the
		// deeper (origin) pool. The untraced run passes no recorder and
		// keeps the proxy's own two pools.
		cfg.Transport = &tracedTransport{next: proxy.NewTransport(proxy.OriginIdleConnsPerHost), rec: rec, originHost: originHost}
	}
	if c.proxy, err = proxy.New(cfg); err != nil {
		return nil, err
	}
	if err = c.proxy.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}

	c.check = &verifier{o: c.origin, spec: spec, want: make(map[[2]int64][md5.Size]byte)}
	c.client = &http.Client{Timeout: 30 * time.Second, Transport: proxy.NewTransport(generators)}
	c.docURL = make([]string, spec.docs)
	c.fetchURL = make([]string, spec.docs)
	for d := range c.docURL {
		c.docURL[d] = "http://" + originHost + docPath(d) + "?size=" + strconv.Itoa(spec.sizeOf(d))
		c.fetchURL[d] = c.proxy.BaseURL() + "/fetch?url=" + url.QueryEscape(c.docURL[d])
	}

	acfg := browser.DefaultConfig(c.proxy.BaseURL())
	acfg.IndexMode = browser.Batched
	acfg.CacheCapacity = spec.agentCache
	acfg.Verify = true
	for h := 0; h < spec.hosts; h++ {
		host, herr := browser.NewHost(browser.HostConfig{Agent: acfg})
		if herr != nil {
			return nil, herr
		}
		c.hosts = append(c.hosts, host)
		for a := 0; a < spec.agentsPerHost; a++ {
			ag, aerr := host.Spawn()
			if aerr != nil {
				return nil, aerr
			}
			c.agents = append(c.agents, ag)
		}
	}

	if err = c.warm(seed); err != nil {
		return nil, err
	}
	return c, nil
}

// warm fills the caches with untimed traffic of the workload's own shape.
func (c *liveCluster) warm(seed uint64) error {
	var failed atomic.Int64
	run := func(n int, reqOf func(worker, i int) request) {
		var wg sync.WaitGroup
		for w := 0; w < generators; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += generators {
					if !c.do(w, reqOf(w, i)).ok {
						failed.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
	}
	if c.spec.warmup < 0 {
		run(c.spec.docs, func(_, i int) request { return request{doc: i, modDoc: -1} })
	} else {
		streams := c.streams(seed, streamWarm)
		run(c.spec.warmup, func(w, _ int) request { return streams[w].next() })
	}
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("%s: %d warm-up fetches failed", c.spec.name, n)
	}
	return nil
}

// streams returns one seeded request stream per generator; base keeps the
// warm-up, closed-loop and open-loop sequences apart.
func (c *liveCluster) streams(seed uint64, base uint64) []*requestStream {
	out := make([]*requestStream, generators)
	for w := range out {
		out[w] = newRequestStream(seed, base+uint64(w), c.spec.docs, c.spec.zipfS, c.spec.modEvery)
		if n := len(c.agents); n > 0 {
			out[w].agents = n
			out[w].agentRng = rand.New(rand.NewPCG(seed^0xC0FFEE, base+uint64(w)))
		}
	}
	return out
}

// do performs one request and verifies the reply. The span closes when the
// body is complete, before verification: checking is the benchmark's cost,
// not the system's, and checkNS lets the generator keep it out of latency.
func (c *liveCluster) do(worker int, r request) (res opResult) {
	if r.modDoc >= 0 {
		c.origin.Modify(docPath(r.modDoc))
	}
	current := c.origin.Version(docPath(r.doc))
	var done time.Time
	defer func() { res.checkNS = int64(time.Since(done)) }()

	if len(c.agents) > 0 {
		start := time.Now()
		body, src, err := c.agents[r.agent].Get(context.Background(), c.docURL[r.doc])
		done = time.Now()
		c.rec.add(spanAgentGet, c.docURL[r.doc], start, done)
		// Agent.Get does not say which version it returned; live.peer
		// never modifies, so the current one is the only one.
		if err != nil || !c.check.ok(r.doc, current, body) {
			return opResult{}
		}
		return opResult{ok: true, bytes: len(body), origin: src == browser.SourceOrigin}
	}

	start := time.Now()
	resp, err := c.client.Get(c.fetchURL[r.doc])
	if err != nil {
		done = time.Now()
		return opResult{}
	}
	buf := &c.bufs[worker]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	done = time.Now()
	c.rec.add(spanClientFetch, c.docURL[r.doc], start, done)
	if err != nil || resp.StatusCode != http.StatusOK {
		return opResult{}
	}
	version, err := strconv.ParseInt(resp.Header.Get(proxy.HeaderVersion), 10, 64)
	if err != nil || !c.check.ok(r.doc, version, buf.Bytes()) {
		return opResult{}
	}
	return opResult{
		ok: true, bytes: buf.Len(),
		origin: resp.Header.Get(proxy.HeaderSource) == proxy.SourceOrigin,
		// An older version than the origin held when the request left is
		// a stale serve: counted, not failed.
		stale: version < current,
	}
}

// agentTotals sums the fleet's counters.
func (c *liveCluster) agentTotals() browser.Metrics {
	var sum browser.Metrics
	for _, a := range c.agents {
		m := a.Snapshot()
		sum.Requests += m.Requests
		sum.LocalHits += m.LocalHits
		sum.PeerServes += m.PeerServes
		sum.IndexOps += m.IndexOps
		sum.IndexSyncs += m.IndexSyncs
		sum.IndexBatches += m.IndexBatches
	}
	return sum
}

// close stops every server and waits for it. The agent hosts and the proxy
// are stopped abruptly (Kill, Crash): their graceful paths wait out every
// keep-alive connection a peer still pools toward them, up to seconds per
// server, and nothing reads their state after this point.
func (c *liveCluster) close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	var errs []error
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
	for _, h := range c.hosts {
		h.Kill()
	}
	if c.proxy != nil {
		c.proxy.Crash()
	}
	if c.originSrv != nil {
		errs = append(errs, c.originSrv.Close())
	}
	if c.dir != "" {
		errs = append(errs, os.RemoveAll(c.dir))
	}
	return errors.Join(errs...)
}
