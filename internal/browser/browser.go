// Package browser implements the live browser-side agent of the
// browsers-aware proxy system: a client with a local browser cache that
//
//   - serves its own requests from the local cache first (Figure 1's first
//     lookup);
//   - fetches misses through the browsers-aware proxy;
//   - runs a small peer server so the proxy can retrieve its cached
//     documents (fetch-forward) or instruct it to push a document to an
//     anonymous relay drop (direct-forward) — only callers presenting the
//     registration token are served, so peers can never contact each other
//     directly and identities stay hidden (§6.2);
//   - keeps the proxy's browser index updated with batched deltas: every
//     cache change is coalesced by one publisher and shipped as part of a
//     generation-numbered batch, with a full directory sync on demand;
//   - verifies document watermarks with the proxy's public key (§6.1) —
//     one RSA operation per distinct (digest, watermark) pair and key, the
//     rest from a verification memo a host shares among its agents — and
//     reports tampered direct-forward deliveries.
package browser

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"baps/internal/bufpool"
	"baps/internal/cache"
	"baps/internal/integrity"
	"baps/internal/obs"
	"baps/internal/proxy"
)

// Source classifies where a Get was satisfied.
type Source string

// Source values.
const (
	SourceLocal  Source = "local"
	SourceProxy  Source = proxy.SourceProxy
	SourceRemote Source = proxy.SourceRemote
	SourceOrigin Source = proxy.SourceOrigin
)

// IndexMode names the live index-update protocol. Batched, the zero value,
// is its only value: the paper's §2 compares immediate and periodic updates
// by message cost, and that comparison lives in the simulator
// (internal/index), not on the live wire. The type survives only because
// benchmark/ still sets it; it goes with the next benchmark-only change.
type IndexMode int

// Batched coalesces cache changes in the agent's publisher (last write wins
// per URL) and ships only the net deltas as generation-numbered sub-batches
// of POST /index/batch, flushed by count, bytes, or interval — store() never
// does network I/O. Drift (a lost batch, a proxy restart) is detected by
// generation gaps and periodic Bloom digests and repaired by the proxy's
// /peer/resync pull.
const Batched IndexMode = 0

// Config parameterizes an agent.
type Config struct {
	// ProxyURL is the browsers-aware proxy's base URL.
	ProxyURL string
	// CacheCapacity is the browser cache size in bytes (LRU, half of it
	// the memory tier).
	CacheCapacity int64
	// IndexMode must be Batched (the zero value); see IndexMode.
	IndexMode IndexMode
	// Verify enables watermark verification on every non-local document.
	Verify bool
	// Timeout bounds proxy calls.
	Timeout time.Duration
	// HeartbeatInterval is the liveness-beacon period (POST /heartbeat).
	// Zero disables the heartbeat loop (the proxy's silence sweep will
	// eventually quarantine the agent's entries).
	HeartbeatInterval time.Duration
	// AdvertisePeerURL, when non-empty, is registered with the proxy in
	// place of the agent's actual listen address. Fault-injection
	// harnesses front the peer server with a faulty gateway this way.
	AdvertisePeerURL string
	// Logger, when non-nil, receives structured logs (registration,
	// tamper rejections, heartbeat failures; an AgentHost's own logs too).
	Logger *slog.Logger

	// batchMaxDelay, when positive, replaces the batchMaxDelay constant:
	// tests set an hour so that only FlushIndex or the count limit ships,
	// or a few milliseconds so that flushes overlap their churn.
	batchMaxDelay time.Duration
}

// An agent's fixed parameters.
const (
	// memFraction is the memory-tier share of the agent cache.
	memFraction = 0.5
	// batchMaxDelay is the publisher's flush interval: pending deltas ship
	// at least this often, sooner when the publisher's count or byte limit
	// trips (publish.go).
	batchMaxDelay = 100 * time.Millisecond
	// digestEvery attaches a Bloom digest of the full directory to every
	// digestEvery-th batch so the proxy can detect drift.
	digestEvery = 8
)

// DefaultConfig returns sensible agent defaults.
func DefaultConfig(proxyURL string) Config {
	return Config{
		ProxyURL:          proxyURL,
		CacheCapacity:     8 << 20,
		Verify:            true,
		Timeout:           10 * time.Second,
		HeartbeatInterval: 5 * time.Second,
	}
}

// Metrics counts agent activity.
type Metrics struct {
	Requests     int64
	LocalHits    int64
	ProxyHits    int64
	RemoteHits   int64
	OriginMiss   int64
	PeerServes   int64
	TamperSeen   int64
	IndexSyncs   int64 // Full directory syncs the proxy accepted
	IndexBatches int64 // delta sub-batches the proxy accepted
	// IndexOps is always 0: it counted the per-change messages of a live
	// protocol that is gone, and stays only because benchmark/ sums it.
	IndexOps int64
	// IndexPublishFailures counts sub-batches whose carrier errored or came
	// back non-2xx, and sub-batches the proxy rejected. A failed carrier is
	// retried — the pending deltas stay queued — so a failure here is
	// load-shedding visibility, not data loss.
	IndexPublishFailures int64
	// DirSnapshotMisses counts directory-snapshot entries skipped because
	// the key vanished between Keys() and Peek() (should stay zero: the
	// snapshot runs under the cache lock).
	DirSnapshotMisses int64
	OnionRelayed      int64
	// Background-pipeline traffic (DESIGN.md §14): proxy-initiated cache
	// pushes accepted into / declined by this cache, and proxy-initiated
	// invalidations applied to it.
	PushesAccepted int64
	PushesDeclined int64
	Invalidations  int64

	// WatermarkVerifies counts full RSA watermark verifications;
	// VerifyMemoHits counts deliveries accepted from the verification memo
	// because the same (digest, watermark) pair had already verified under
	// the proxy's key (on this host, for a hosted agent).
	WatermarkVerifies int64
	VerifyMemoHits    int64
}

// Agent is one live browser client. It runs in one of two shapes: a
// standalone agent owns a listener, HTTP server, transport pool, publisher,
// and heartbeat goroutine; a hosted agent (AgentHost.Spawn) is just this
// struct — the host supplies a shared server, shared transport, one
// publisher, and one heartbeat pacer for all its agents, so per-agent
// overhead stays flat at fleet scale.
type Agent struct {
	cfg      Config
	id       int
	token    string
	verifier *integrity.Verifier // own when standalone; the host's for this key when hosted
	bodies   *bodyStore          // own when standalone; the host's when hosted
	relayKey []byte              // covert-path key issued at registration

	// pubOrder makes index deltas reach the publisher in seq order:
	// store and Evict take it before mu and hold it across the enqueue
	// that follows mu's release. Coalescing by seq only orders deltas that
	// meet in one pending window: a delta arriving after a newer one for
	// the same URL was flushed would resurrect an evicted document at the
	// proxy. Publisher loops never take it, so a sender blocked on a full
	// queue cannot stall a loop that needs mu.
	pubOrder sync.Mutex
	mu       sync.Mutex
	cache    *cache.TwoTier
	// docs holds body, watermark, and version per cached URL in one map:
	// one lookup (and at fleet scale, one bucket array) where the old
	// bodies/marks pair cost two. Entries change only through keepLocked
	// and dropLocked, which keep the body store's references right.
	docs map[string]cachedDoc
	// deltaSeq orders index deltas by cache mutation: assigned under a.mu
	// at mutation time, compared by the publisher when coalescing and
	// before attaching a digest.
	deltaSeq uint64
	// Waiters for onion-routed deliveries, by document URL.
	pendingOnion map[string]chan onionDeliveryMsg
	// invalidated tombstones proxy-invalidated documents: url → minimum
	// acceptable version. Copies below the floor are never stored and
	// never served to peers (410), even across the Close() window — a
	// stale body must not leave this agent with a valid watermark.
	invalidated map[string]int64
	// closing marks shutdown: peer-serve and push handlers refuse once
	// Close/Kill has begun, so the graceful-shutdown window cannot serve
	// a document the proxy believes withdrawn.
	closing bool

	metrics Metrics
	obs     *obs.Registry
	logger  *slog.Logger

	// httpClient is per-agent for standalone agents; hosted agents share
	// their host's one tuned transport. listener/httpSrv are nil when
	// hosted — the host's shared server routes to this agent by slot.
	httpClient *http.Client
	listener   net.Listener
	httpSrv    *http.Server
	peerURL    string

	// index is the agent's index publisher: its own when standalone (one
	// member), the host's when hosted (the whole fleet).
	index *publisher

	// Host plumbing (nil/0 when standalone).
	host *AgentHost
	slot int

	stopHeartbeat chan struct{}
	// heartbeatDone is closed when the heartbeat goroutine exits; Close
	// waits on it before unregistering, so a beat in flight cannot land at
	// the proxy after the unregister wiped the agent's health record (a
	// resurrection the silence sweep could never clear). Nil when no
	// heartbeat loop runs (hosted agents, HeartbeatInterval 0).
	heartbeatDone chan struct{}
	closeOnce     sync.Once

	// Tamper is a test hook: when non-nil, bodies served to peers (via
	// either forward mode) pass through it — the "malicious holder". The
	// body it is handed may be shared with other agents on the host and is
	// read-only: a hook that alters it must return an altered copy.
	Tamper func(url string, body []byte) []byte
}

// cachedDoc is one locally cached document: the body plus the proxy
// watermark and version needed to re-serve it to peers. shared reports that
// body is the body store's copy, which the agent holds one reference to;
// otherwise the agent's bytes differed from the held copy and body is its
// own.
type cachedDoc struct {
	body      []byte
	watermark []byte
	version   int64
	shared    bool
}

// normalizeConfig validates cfg and fills the publisher defaults; shared by
// the standalone and hosted constructors.
func normalizeConfig(cfg Config) (Config, error) {
	if cfg.ProxyURL == "" {
		return cfg, errors.New("browser: missing ProxyURL")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.IndexMode != Batched {
		return cfg, fmt.Errorf("browser: IndexMode %d: Batched is the only live index protocol", cfg.IndexMode)
	}
	if cfg.batchMaxDelay <= 0 {
		cfg.batchMaxDelay = batchMaxDelay
	}
	return cfg, nil
}

// initAgent fills in the agent core — cache, doc map, tombstones — on a
// caller-allocated struct (hosts place agents in arena chunks) using the
// caller's HTTP client and body store. Config must already be normalized.
func initAgent(a *Agent, cfg Config, client *http.Client, bodies *bodyStore) error {
	tc, err := cache.NewTwoTier(cache.LRU, cfg.CacheCapacity,
		int64(float64(cfg.CacheCapacity)*memFraction))
	if err != nil {
		return err
	}
	a.cfg = cfg
	a.cache = tc
	a.docs = make(map[string]cachedDoc)
	a.bodies = bodies
	a.invalidated = make(map[string]int64)
	a.httpClient = client
	a.stopHeartbeat = make(chan struct{})
	a.logger = cfg.Logger
	return nil
}

// peerPaths is the peer-server route table, shared by the standalone mux
// and the AgentHost path router. Every handler is path-independent — it
// reads only query/body/headers — which is what makes prefix-routed hosting
// possible without touching the wire protocol.
var peerPaths = []string{
	"/peer/doc", "/peer/send", "/peer/onion-send", "/peer/onion",
	"/peer/resync", "/cache/push", "/cache/invalidate",
}

// dispatch maps a peer-server path to its handler (nil when unknown).
func (a *Agent) dispatch(path string) http.HandlerFunc {
	switch path {
	case "/peer/doc":
		return a.handlePeerDoc
	case "/peer/send":
		return a.handlePeerSend
	case "/peer/onion-send":
		return a.handlePeerOnionSend
	case "/peer/onion":
		return a.handlePeerOnion
	case "/peer/resync":
		return a.handlePeerResync
	case "/cache/push":
		return a.handleCachePush
	case "/cache/invalidate":
		return a.handleCacheInvalidate
	}
	return nil
}

// New starts a standalone agent: it brings up the peer server on a loopback
// port and registers with the proxy.
func New(cfg Config) (*Agent, error) {
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	a := &Agent{}
	// Keep-alive-tuned transport toward the agent's one proxy host: the
	// stock transport's 2 idle connections per host re-dial constantly
	// under concurrent fetch + index-update traffic.
	if err := initAgent(a, cfg, &http.Client{
		Timeout:   cfg.Timeout,
		Transport: proxy.NewTransport(proxy.AgentIdleConnsPerHost),
	}, newBodyStore()); err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("browser: peer listen: %w", err)
	}
	a.listener = ln
	a.peerURL = "http://" + ln.Addr().String()
	a.obs = obs.NewRegistry()
	a.registerMetrics()
	mux := http.NewServeMux()
	for _, p := range peerPaths {
		mux.HandleFunc(p, a.dispatch(p))
	}
	mux.Handle("/metrics", a.obs.Handler())
	a.httpSrv = &http.Server{Handler: mux}
	go a.httpSrv.Serve(ln)

	if err := a.register(); err != nil {
		a.Close()
		return nil, err
	}
	// The publisher needs the registration id/token, so it starts only
	// after a successful register.
	a.index = newPublisher(cfg.ProxyURL, a.httpClient, cfg.Logger, cfg.batchMaxDelay, agentFlushDeltas, agentFlushBytes)
	if cfg.HeartbeatInterval > 0 {
		a.heartbeatDone = make(chan struct{})
		go a.heartbeatLoop()
	}
	return a, nil
}

// register joins the proxy and obtains id, token and public key.
func (a *Agent) register() error {
	peerURL := a.peerURL
	if a.cfg.AdvertisePeerURL != "" {
		peerURL = a.cfg.AdvertisePeerURL
	}
	body, _ := json.Marshal(proxy.RegisterRequest{PeerURL: peerURL})
	resp, err := a.httpClient.Post(a.cfg.ProxyURL+"/register", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("browser: register: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("browser: register status %s", resp.Status)
	}
	var reg proxy.RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		return fmt.Errorf("browser: register decode: %w", err)
	}
	var verifier *integrity.Verifier
	if a.host != nil {
		verifier, err = a.host.verifierFor(reg.PublicKey)
	} else {
		verifier, err = newVerifier(reg.PublicKey)
	}
	if err != nil {
		return err
	}
	relayKey, err := base64.StdEncoding.DecodeString(reg.RelayKey)
	if err != nil || len(relayKey) != 32 {
		return fmt.Errorf("browser: bad relay key from proxy")
	}
	a.id, a.token, a.verifier, a.relayKey = reg.ClientID, reg.Token, verifier, relayKey
	if a.logger != nil {
		a.logger.Info("registered with proxy", "client", a.id, "peer_url", peerURL)
	}
	return nil
}

// beginClose flips the agent into the closing state exactly once: the
// heartbeat loop is told to stop and the serve/store paths start refusing.
func (a *Agent) beginClose() {
	a.closeOnce.Do(func() {
		close(a.stopHeartbeat)
		a.mu.Lock()
		a.closing = true
		a.mu.Unlock()
	})
}

// isClosing reports whether Close/Kill has begun (host heartbeat pacer).
func (a *Agent) isClosing() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.closing
}

// Close departs gracefully: it stops the heartbeat loop AND waits for it to
// exit (a beat that raced the shutdown has fully completed, so it cannot
// re-animate this agent's health record after the unregister below), drains
// the publisher (final flush, so no coalesced delta is lost),
// deregisters from the proxy (POST /unregister, so the proxy drops the
// agent's index entries immediately instead of discovering the departure
// through failed fetches), and shuts the peer server down. Hosted agents
// delegate to their host, which frees the slot and flushes their share of
// the host's publisher.
func (a *Agent) Close() error {
	if a.host != nil {
		a.host.remove(a, true)
		return nil
	}
	a.beginClose()
	if a.heartbeatDone != nil {
		<-a.heartbeatDone
	}
	if a.index != nil {
		a.index.stop(true)
	}
	if a.token != "" {
		a.unregister()
	}
	if a.httpSrv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return a.httpSrv.Shutdown(ctx)
}

// Kill terminates the agent abruptly — no unregister, no graceful drain —
// simulating a browser that crashes or loses its network. The proxy only
// learns of the departure through failed fetches and missed heartbeats.
func (a *Agent) Kill() {
	if a.host != nil {
		a.host.remove(a, false)
		return
	}
	a.beginClose()
	if a.index != nil {
		a.index.stop(false) // abrupt: queued deltas are dropped, no flush
	}
	if a.httpSrv != nil {
		a.httpSrv.Close()
	}
}

// releaseMemory drops the agent's cached bodies, with their body-store
// references, and cache accounting after close. Hosted fleets churn
// thousands of agents per run; a dead agent must cost a bare struct, not its
// full cache. Reads of the nil doc map miss and deletes no-op, and store()
// refuses once closing is set, so late handlers see an empty-but-valid
// agent.
func (a *Agent) releaseMemory() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, k := range a.cache.Keys() {
		a.cache.Remove(k)
	}
	for k := range a.docs {
		a.dropLocked(k)
	}
	a.docs = nil
	a.invalidated = nil
}

// unregister tells the proxy this client is leaving (best-effort).
func (a *Agent) unregister() {
	proxy.Post(context.Background(), a.httpClient, a.cfg.ProxyURL+"/unregister", nil, a.auth()...)
}

// heartbeatLoop posts liveness beacons until the agent closes. Closing
// heartbeatDone on exit is what lets Close order the last beat before the
// unregister.
func (a *Agent) heartbeatLoop() {
	defer close(a.heartbeatDone)
	t := time.NewTicker(a.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-a.stopHeartbeat:
			return
		case <-t.C:
			a.heartbeat()
		}
	}
}

// heartbeat posts one liveness beacon (best-effort).
func (a *Agent) heartbeat() {
	proxy.Post(context.Background(), a.httpClient, a.cfg.ProxyURL+"/heartbeat", nil, a.auth()...)
}

// registerMetrics exposes the agent's mutex-guarded counters as
// callback-backed families, so the request path keeps its existing single
// lock acquisition and the exposition reads through the same lock.
func (a *Agent) registerMetrics() {
	counter := func(name, help string, get func(*Metrics) int64) {
		a.obs.CounterFunc(name, help, func() int64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return get(&a.metrics)
		})
	}
	counter("baps_browser_requests_total", "Documents requested through Get.",
		func(m *Metrics) int64 { return m.Requests })
	counter("baps_browser_local_hits_total", "Requests served from the local browser cache.",
		func(m *Metrics) int64 { return m.LocalHits })
	counter("baps_browser_proxy_hits_total", "Requests served from the proxy cache.",
		func(m *Metrics) int64 { return m.ProxyHits })
	counter("baps_browser_remote_hits_total", "Requests served from a remote browser cache.",
		func(m *Metrics) int64 { return m.RemoteHits })
	counter("baps_browser_origin_misses_total", "Requests that fell through to the origin.",
		func(m *Metrics) int64 { return m.OriginMiss })
	counter("baps_browser_peer_serves_total", "Documents served to peers from this cache.",
		func(m *Metrics) int64 { return m.PeerServes })
	counter("baps_browser_tamper_seen_total", "Watermark verification failures on received documents.",
		func(m *Metrics) int64 { return m.TamperSeen })
	counter("baps_browser_watermark_verified_total", "Watermark verifications that ran an RSA public-key operation.",
		func(m *Metrics) int64 { return m.WatermarkVerifies })
	counter("baps_browser_watermark_verify_memo_hits_total", "Watermarks accepted from the verification memo without an RSA operation.",
		func(m *Metrics) int64 { return m.VerifyMemoHits })
	counter("baps_browser_index_syncs_total", "Full directory syncs accepted by the proxy.",
		func(m *Metrics) int64 { return m.IndexSyncs })
	counter("baps_browser_index_batches_total", "Delta sub-batches accepted by the proxy.",
		func(m *Metrics) int64 { return m.IndexBatches })
	counter("baps_browser_index_publish_failures_total", "Index sub-batches that failed or were rejected.",
		func(m *Metrics) int64 { return m.IndexPublishFailures })
	counter("baps_browser_dir_snapshot_misses_total", "Directory-snapshot entries skipped by a Keys/Peek race.",
		func(m *Metrics) int64 { return m.DirSnapshotMisses })
	counter("baps_browser_onion_relayed_total", "Onion-path hops relayed for other peers.",
		func(m *Metrics) int64 { return m.OnionRelayed })
	counter("baps_browser_pushes_accepted_total", "Proxy-initiated cache pushes stored locally.",
		func(m *Metrics) int64 { return m.PushesAccepted })
	counter("baps_browser_pushes_declined_total", "Proxy-initiated cache pushes refused (closing or tombstoned).",
		func(m *Metrics) int64 { return m.PushesDeclined })
	counter("baps_browser_invalidations_total", "Proxy-initiated invalidations applied to the local cache.",
		func(m *Metrics) int64 { return m.Invalidations })
	a.obs.GaugeFunc("baps_browser_cache_docs", "Documents in the local cache.", func() float64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return float64(a.cache.Len())
	})
	a.obs.GaugeFunc("baps_browser_cache_bytes", "Bytes in the local cache.", func() float64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return float64(a.cache.Used())
	})
}

// Obs exposes the agent's metrics registry.
func (a *Agent) Obs() *obs.Registry { return a.obs }

// ID reports the proxy-assigned client id.
func (a *Agent) ID() int { return a.id }

// PeerURL reports the agent's peer-server base URL.
func (a *Agent) PeerURL() string { return a.peerURL }

// Snapshot returns a copy of the agent's metrics.
func (a *Agent) Snapshot() Metrics {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.metrics
}

// HasCached reports whether url is in the local cache (no promotion).
func (a *Agent) HasCached(url string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.cache.Peek(url)
	return ok
}

// Get resolves a document: local browser cache, then the browsers-aware
// proxy (which itself tries its cache, remote browsers, and the origin).
// The returned body may be shared with other agents on the host and with
// this agent's cache, so it is read-only.
func (a *Agent) Get(ctx context.Context, docURL string) ([]byte, Source, error) {
	a.mu.Lock()
	a.metrics.Requests++
	if _, _, ok := a.cache.GetTier(docURL); ok {
		body := a.docs[docURL].body
		a.metrics.LocalHits++
		a.mu.Unlock()
		return body, SourceLocal, nil
	}
	a.mu.Unlock()

	// Pre-register an onion waiter: under OnionForward the delivery can
	// race the /fetch response.
	onionCh, cancelOnion := a.expectOnion(docURL)
	defer cancelOnion()

	body, src, ticket, mark, version, viaOnion, err := a.fetchViaProxy(ctx, docURL, false)
	if err != nil {
		return nil, "", err
	}
	if viaOnion {
		d, derr := a.awaitOnion(onionCh)
		if derr != nil {
			// Covert path failed; retry bypassing peers.
			body, src, _, mark, version, viaOnion, err = a.fetchViaProxy(ctx, docURL, true)
			if err != nil {
				return nil, "", err
			}
			if viaOnion {
				return nil, "", fmt.Errorf("browser: proxy insisted on onion delivery with peers disabled")
			}
		} else {
			body, mark, version = d.body, d.watermark, d.version
			src = SourceRemote
		}
	}
	if a.cfg.Verify {
		if verr := a.verify(body, mark); verr != nil {
			a.mu.Lock()
			a.metrics.TamperSeen++
			a.mu.Unlock()
			if a.logger != nil {
				a.logger.Warn("watermark rejected", "url", docURL, "err", verr)
			}
			// §6.1: reject, report the delivery (the proxy maps the
			// ticket to the hidden holder), and retry bypassing peers.
			a.reportBad(ctx, docURL, ticket)
			body, src, _, mark, version, _, err = a.fetchViaProxy(ctx, docURL, true)
			if err != nil {
				return nil, "", err
			}
			if verr := a.verify(body, mark); verr != nil {
				return nil, "", verr
			}
		}
	}
	a.store(docURL, body, mark, version)
	switch src {
	case SourceProxy:
		a.addMetric(func(m *Metrics) { m.ProxyHits++ })
	case SourceRemote:
		a.addMetric(func(m *Metrics) { m.RemoteHits++ })
	default:
		a.addMetric(func(m *Metrics) { m.OriginMiss++ })
	}
	return body, src, nil
}

func (a *Agent) addMetric(f func(*Metrics)) {
	a.mu.Lock()
	f(&a.metrics)
	a.mu.Unlock()
}

// newVerifier builds a watermark verifier for a registration's PEM key.
func newVerifier(pemKey string) (*integrity.Verifier, error) {
	pub, err := integrity.ParsePublicKey([]byte(pemKey))
	if err != nil {
		return nil, err
	}
	return integrity.NewVerifier(pub), nil
}

// verify checks the watermark under the proxy's public key, through the
// verification memo: a pair already verified under this key costs no RSA
// operation.
func (a *Agent) verify(body, mark []byte) error {
	if len(mark) == 0 {
		return errors.New("browser: missing watermark")
	}
	hit, err := a.verifier.Verify(body, mark)
	a.mu.Lock()
	if hit {
		a.metrics.VerifyMemoHits++
	} else {
		a.metrics.WatermarkVerifies++
	}
	a.mu.Unlock()
	return err
}

// fetchViaProxy performs GET /fetch. viaOnion reports that the proxy
// announced an out-of-band onion delivery instead of returning a body.
func (a *Agent) fetchViaProxy(ctx context.Context, docURL string, noPeer bool) (body []byte, src Source, ticket string, mark []byte, version int64, viaOnion bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		a.cfg.ProxyURL+"/fetch?url="+url.QueryEscape(docURL), nil)
	if err != nil {
		return nil, "", "", nil, 0, false, err
	}
	req.Header.Set(proxy.HeaderClient, strconv.Itoa(a.id))
	req.Header.Set(proxy.HeaderToken, a.token)
	if noPeer {
		req.Header.Set(proxy.HeaderNoPeer, "1")
	}
	resp, err := a.httpClient.Do(req)
	if err != nil {
		return nil, "", "", nil, 0, false, fmt.Errorf("browser: fetch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, "", "", nil, 0, false, fmt.Errorf("browser: fetch status %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	if resp.Header.Get(proxy.HeaderOnion) == "1" {
		return nil, SourceRemote, "", nil, 0, true, nil
	}
	version, _ = strconv.ParseInt(resp.Header.Get(proxy.HeaderVersion), 10, 64)
	body, err = readBody(resp, a.bodies.lookup(docURL, version))
	if err != nil {
		return nil, "", "", nil, 0, false, err
	}
	src = Source(resp.Header.Get(proxy.HeaderSource))
	ticket = resp.Header.Get("X-BAPS-Ticket")
	if b64 := resp.Header.Get(proxy.HeaderWatermark); b64 != "" {
		mark, _ = base64.StdEncoding.DecodeString(b64)
	}
	return body, src, ticket, mark, version, false, nil
}

// reportBad files a §6.1 rejection for a direct-forward delivery.
func (a *Agent) reportBad(ctx context.Context, docURL, ticket string) {
	rep, _ := json.Marshal(proxy.BadContentReport{ClientID: a.id, URL: docURL, Ticket: ticket})
	proxy.Post(ctx, a.httpClient, a.cfg.ProxyURL+"/report-bad", rep,
		append(a.auth(), "Content-Type", "application/json")...)
}

// auth is the agent's credential header pairs, as proxy.Post takes them.
func (a *Agent) auth() []string {
	return []string{proxy.HeaderClient, strconv.Itoa(a.id), proxy.HeaderToken, a.token}
}

// readBody reads a document response in one pass, pre-sizing the buffer from
// Content-Length when known and enforcing the system-wide proxy.MaxDocBytes
// cap instead of silently truncating. held is the body store's copy of the
// announced (URL, version), or nil. A response of held's length is read into
// a pooled buffer, and a byte-identical one is answered with held itself, so
// fetching a body the host already caches allocates none.
func readBody(resp *http.Response, held []byte) ([]byte, error) {
	if resp.ContentLength > proxy.MaxDocBytes {
		return nil, fmt.Errorf("browser: document exceeds %d bytes", proxy.MaxDocBytes)
	}
	if held != nil && int64(len(held)) == resp.ContentLength && len(held) <= bufpool.TierLarge {
		bp := bufpool.Get(len(held))
		defer bufpool.Put(bp)
		buf := (*bp)[:len(held)]
		if _, err := io.ReadFull(resp.Body, buf); err != nil {
			return nil, err
		}
		if bytes.Equal(buf, held) {
			return held, nil
		}
		return bytes.Clone(buf), nil
	}
	if resp.ContentLength >= 0 {
		body := make([]byte, resp.ContentLength)
		if _, err := io.ReadFull(resp.Body, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, proxy.MaxDocBytes+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > proxy.MaxDocBytes {
		return nil, fmt.Errorf("browser: document exceeds %d bytes", proxy.MaxDocBytes)
	}
	return body, nil
}
