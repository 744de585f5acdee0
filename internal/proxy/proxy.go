// Package proxy implements the live browsers-aware proxy server (§2 of the
// paper) on net/http: a caching proxy that additionally maintains the
// browser index of every connected client's cache and resolves proxy misses
// peer-to-peer from remote browser caches before going to the origin.
//
// The server speaks the wire protocol in wire.go; the client-facing core is
//
//	POST /register      browser agents join; get id, token, proxy public key
//	POST /unregister    graceful departure; drops the client's index entries
//	POST /heartbeat     browser liveness signal (feeds the circuit breaker)
//	GET  /fetch?url=U   resolve a document (client id in X-BAPS-Client)
//	POST /index/batch   the one index-update path: per-agent generation-
//	                    numbered delta sub-batches, or a Full directory sync
//	POST /relay/{t}     holder drop point for direct-forward (§6.2 anonymity)
//	POST /report-bad    watermark-rejection report  (§6.1)
//	GET  /pubkey        proxy watermark key (PEM)
//	GET  /stats         JSON metrics
//	GET  /healthz       liveness
//
// and Handler mounts the admin, federation and observability routes beside
// it. The paper's §2 compares immediate and periodic index updates by
// message cost; that comparison lives in the simulator (internal/index),
// while live agents publish batched deltas only.
//
// Remote hits are delivered in one of the paper's two modes: fetch-forward
// (the proxy fetches from the holder's peer server, verifies the MD5 digest
// against its recorded watermark, optionally caches, forwards) or
// direct-forward (the proxy issues a one-time relay ticket so holder and
// requester exchange the document without learning each other's identity;
// the requester verifies the watermark itself). Only a registered client can
// verify, so an anonymous requester always gets fetch-forward (forwardFor).
//
// The watermark key pair is, like the watermarks it signs, a value derived on
// first demand (watermark.go): the first /register, /pubkey, registered
// /fetch or holder-watermark check loads DIR/key.pem or generates the pair, so
// a proxy only anonymous clients use never runs an RSA key generation.
package proxy

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"baps/internal/anonymity"
	"baps/internal/cache"
	"baps/internal/diskstore"
	"baps/internal/federation"
	"baps/internal/flight"
	"baps/internal/index"
	"baps/internal/integrity"
	"baps/internal/intern"
	"baps/internal/obs"
	"baps/internal/workqueue"
)

// ForwardMode mirrors core.ForwardMode for the live system.
type ForwardMode int

const (
	// FetchForward relays documents through the proxy.
	FetchForward ForwardMode = iota
	// DirectForward exchanges documents through an anonymous one-time
	// relay drop without entering the proxy cache.
	DirectForward
	// OnionForward delivers documents browser-to-browser over an
	// onion-routed covert path of relay browsers: the holder learns one
	// relay address, relays learn their neighbors, the requester learns
	// nothing, and the body never touches the proxy (§6.2's "no or
	// limited centralized control" variant).
	OnionForward
)

// Config parameterizes the live proxy.
type Config struct {
	// CacheCapacity is the proxy cache size in bytes.
	CacheCapacity int64
	// MemFraction is the memory-tier share (paper: 1/10).
	MemFraction float64
	// Policy is the replacement policy (paper: LRU).
	Policy cache.Policy
	// Forward selects the remote-hit delivery mode for registered clients;
	// anonymous requesters always get FetchForward.
	Forward ForwardMode
	// CachePeerDocs: under FetchForward, also cache relayed documents.
	CachePeerDocs bool
	// PeerTimeout bounds holder contact + relay wait.
	PeerTimeout time.Duration
	// PeerSoftDeadline is the hedging threshold: when the peer path has
	// not produced a document after this long, the proxy races the origin
	// in parallel and serves whichever answers first, so a slow holder
	// never makes a request slower than a plain proxy miss. 0 disables
	// hedging (default half of PeerTimeout via DefaultConfig).
	PeerSoftDeadline time.Duration
	// BreakerThreshold is the number of consecutive transport failures
	// that trip a peer's circuit breaker, quarantining all its index
	// entries at once. <=0 disables the breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before a
	// half-open probe may re-admit the peer (default 10s).
	BreakerCooldown time.Duration
	// HeartbeatTimeout trips the breaker of any peer with no liveness
	// signal (heartbeat, successful serve, registration) for this long.
	// 0 disables the silence sweep. The sweeper runs from Start.
	HeartbeatTimeout time.Duration
	// OriginRetries is how many times a transient upstream failure is
	// retried with exponential backoff + jitter from retryBaseDelay
	// (default 2).
	OriginRetries int
	// Transport overrides the outbound http.RoundTripper for peer and
	// origin traffic — the chaos harness injects faults here. nil uses
	// http.DefaultTransport.
	Transport http.RoundTripper
	// OnionRelays is the number of intermediate relay browsers on an
	// OnionForward path (default 1; 0 sends holder→requester directly,
	// which exposes the requester's address to the holder).
	OnionRelays int
	// KeyBits sizes the watermark RSA key (default 2048; tests use less).
	KeyBits int
	// DisablePeer turns the browsers-aware layer off entirely (a live
	// proxy-and-local-browser baseline for comparisons).
	DisablePeer bool
	// Logger, when non-nil, receives structured logs including one
	// request-summary line per /fetch with decision outcome and latency.
	Logger *slog.Logger

	// DataDir, when non-empty, enables the crash-safe disk tier: demoted
	// memory-tier bodies spill into a diskstore journaled under this
	// directory, and startup replays it to warm-restart the cache, the
	// /stats counters, and the client/generation tables. Empty keeps the
	// proxy fully in-memory (the previous behavior).
	DataDir string
	// DiskFsync selects the disk tier's durability policy (default
	// interval).
	DiskFsync diskstore.FsyncPolicy
	// DiskMaxBytes bounds the disk tier's live bytes (<=0: CacheCapacity,
	// so the whole two-tier residency survives a restart).
	DiskMaxBytes int64
	// DiskRetention drops disk-tier documents untouched for this long
	// (0 disables age-based retention).
	DiskRetention time.Duration

	// Federation knobs (active once JoinCluster is called; see cluster.go).
	// DigestInterval is the sibling digest push period (<=0: 1s).
	DigestInterval time.Duration
	// MaxFetchRPS paces client-facing /fetch admission to this rate,
	// modeling one proxy process as one machine of bounded capacity
	// (<=0 disables; cluster-hop serves for siblings are never paced).
	MaxFetchRPS int

	// Background work plane (pipeline.go, DESIGN.md §14). The workqueue
	// itself always runs — invalidation fan-out rides on it whenever a
	// modification is observed — but the two scanning producers are
	// opt-in: RevalidateAfter > 0 enables background origin revalidation,
	// PrefetchInterval > 0 enables popularity-driven pushes into
	// under-loaded browser caches.
	//
	// RevalidateAfter is the age past which a resident document is
	// conditionally re-fetched (If-None-Match + If-Modified-Since) in the
	// background.
	RevalidateAfter time.Duration
	// RevalidateEvery is the revalidation scan period (<=0:
	// RevalidateAfter/4, min 25ms).
	RevalidateEvery time.Duration
	// RevalidateRPS rate-limits revalidate jobs (<=0: 256/s).
	RevalidateRPS float64
	// PrefetchInterval is the popularity scan period; each round the
	// hottest resident documents are pushed to the least-loaded agents.
	PrefetchInterval time.Duration
	// PrefetchMinHits is the access count that makes a document a
	// prefetch candidate (<=0: 3).
	PrefetchMinHits int

	// stateSaveEvery, when positive, replaces the stateSaveEvery
	// constant: tests set an hour so that write-behind and state saves
	// happen only when they call them.
	stateSaveEvery time.Duration
}

// The proxy's fixed parameters. Holders are chosen most-recent-first
// (index.SelectMostRecent), and a background job gets PeerTimeout per
// attempt.
const (
	// retryBaseDelay is the first origin retry's backoff base.
	retryBaseDelay = 100 * time.Millisecond
	// stateSaveEvery is the interval between persisted state-blob
	// snapshots (counters, clients, generations) and write-behind passes.
	stateSaveEvery = 2 * time.Second
)

// DefaultConfig returns production-ish defaults.
func DefaultConfig() Config {
	return Config{
		CacheCapacity:    256 << 20,
		MemFraction:      0.10,
		Policy:           cache.LRU,
		Forward:          FetchForward,
		CachePeerDocs:    true,
		PeerTimeout:      5 * time.Second,
		PeerSoftDeadline: 2500 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  10 * time.Second,
		HeartbeatTimeout: 30 * time.Second,
		OriginRetries:    2,
		KeyBits:          2048,
		OnionRelays:      1,
	}
}

type peerInfo struct {
	id       int
	baseURL  string
	token    string
	relayKey []byte // AES-256 covert-path key
}

type docMeta struct {
	version int64
	size    int64
	// digest is the body's MD5: what peer serves are checked against and
	// what the §6.1 watermark is derived from on demand (watermark.go).
	digest []byte
	// Revalidation bookkeeping (pipeline.go): when the body was acquired,
	// when a background conditional GET last confirmed it fresh, and the
	// origin's Last-Modified text for If-Modified-Since.
	storedAt  time.Time
	checkedAt time.Time
	lastMod   string
}

// relaySession is a direct-forward ticket's one record: the holder told to
// push, whether it has, and the channel that hands the push to the waiting
// /fetch.
type relaySession struct {
	holder int
	pushed bool
	ch     chan relayDelivery
}

type relayDelivery struct {
	stream  *relayStream
	version string
}

// Server is the live browsers-aware proxy.
type Server struct {
	cfg Config
	// key is the watermark key pair once first demanded (signingKey):
	// keyFlight makes concurrent first demands load or generate it once,
	// through keySource (loadOrCreateSigner; tests inject failures).
	key       atomic.Pointer[keyPair]
	keyFlight flight.Group[*keyPair]
	keySource func() (*integrity.Signer, error)
	// marks memoises derived watermarks by digest; markFlight makes
	// concurrent first demands for one digest sign once (watermark.go).
	marks      integrity.Memo
	markFlight flight.Group[string]

	mu sync.Mutex
	// docs holds one record per URL the proxy has a digest for, resident or
	// not; cache is the replacement-policy accountant over the resident
	// ones, and demoted collects the keys its last call pushed out of the
	// memory tier (docs.go).
	docs    map[string]*docRecord
	cache   *cache.TwoTier
	demoted []string
	peers   map[int]peerInfo
	// peersByURL indexes registrations by advertised base URL so the
	// re-register supersede path is a lookup, not a scan — at agent-host
	// scale (tens of thousands of registrations, constant churn) the old
	// O(peers) walk per /register dominated registration cost.
	peersByURL map[string]int
	tokens     map[string]int // token → client id
	nextID     int
	started    time.Time

	// Disk-tier plane (nil/unused without Config.DataDir): the spill worker
	// drains spillq into ds, which is never called with mu held.
	ds              *diskstore.Store
	spillq          chan spillOp
	stopDisk        chan struct{}
	diskOnce        sync.Once
	diskWG          sync.WaitGroup
	restoredDocs    int
	restoredClients int
	warmTarget      int64
	warmHits        atomic.Int64
	warmAt          atomic.Int64 // unix nanos when warm; 0 = not yet

	idx     *index.Sharded
	syms    *intern.Sync
	health  *healthTracker
	batches *batchState

	// relays holds one session per direct-forward ticket, from issue until
	// its fetch gives up or, once delivered, until the ring of the last
	// delivered tickets pushes it out: /report-bad reads the holder there.
	relayMu       sync.Mutex
	relays        map[anonymity.Ticket]*relaySession
	delivered     []anonymity.Ticket
	deliveredNext int

	// Request-coalescing planes: missFlight collapses concurrent /fetch
	// misses for one URL into a single resolution (whenever forwardFor is
	// fetch-forward; a direct or onion delivery is its requester's),
	// originFlight collapses concurrent origin acquisitions regardless of
	// mode, and clusterFlight collapses concurrent sibling walks for one URL.
	missFlight    flight.Group[fetchResult]
	originFlight  flight.Group[fetchResult]
	clusterFlight flight.Group[fetchResult]

	// Federation plane: fed is set by JoinCluster (after Start, while
	// requests may already be flowing — hence the atomic pointer); pacer
	// gates client-facing fetch admission under Config.MaxFetchRPS.
	fed   atomic.Pointer[federation.Cluster]
	pacer *fetchPacer

	// Background work plane (pipeline.go): wq runs the revalidation,
	// prefetch, and invalidation jobs; pop counts per-doc accesses for
	// prefetch nomination (under mu); pushed dedups recent pushes so one
	// hot document is not re-pushed to the same agent every round.
	wq           *workqueue.Queue
	pop          map[string]int64
	pushed       map[string]time.Time
	stopPipeline chan struct{}
	pipelineWG   sync.WaitGroup
	pipeOnce     sync.Once

	// peerClient carries proxy→browser traffic (shallow per-host pools,
	// many hosts); originClient carries proxy→origin traffic (deep pool,
	// few hosts, no overall timeout — request contexts bound it).
	peerClient   *http.Client
	originClient *http.Client

	listener  net.Listener
	httpSrv   *http.Server
	baseURL   string
	stopSweep chan struct{}
	sweepOnce sync.Once

	// Observability plane: all counters live in m's registry (served at
	// /metrics, snapshotted into the /stats wire shape), spans in tracer.
	m      *serverMetrics
	tracer *obs.Tracer
	logger *slog.Logger
}

// New builds a proxy server (not yet listening; call Start).
func New(cfg Config) (*Server, error) {
	if cfg.CacheCapacity < 0 {
		return nil, errors.New("proxy: negative cache capacity")
	}
	if cfg.MemFraction <= 0 || cfg.MemFraction > 1 {
		return nil, fmt.Errorf("proxy: MemFraction %g out of (0,1]", cfg.MemFraction)
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = 5 * time.Second
	}
	if cfg.KeyBits == 0 {
		cfg.KeyBits = 2048
	}
	if cfg.KeyBits < integrity.MinKeyBits {
		// Checked here although the key is made on first demand, so a bad
		// size fails at start-up rather than at the first registration.
		return nil, fmt.Errorf("proxy: KeyBits %d below %d", cfg.KeyBits, integrity.MinKeyBits)
	}
	if cfg.OriginRetries < 0 {
		cfg.OriginRetries = 0
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 10 * time.Second
	}
	if cfg.DiskMaxBytes <= 0 {
		cfg.DiskMaxBytes = cfg.CacheCapacity
	}
	if cfg.stateSaveEvery <= 0 {
		cfg.stateSaveEvery = stateSaveEvery
	}
	if cfg.RevalidateAfter > 0 && cfg.RevalidateEvery <= 0 {
		cfg.RevalidateEvery = cfg.RevalidateAfter / 4
		if cfg.RevalidateEvery < 25*time.Millisecond {
			cfg.RevalidateEvery = 25 * time.Millisecond
		}
	}
	if cfg.RevalidateRPS <= 0 {
		cfg.RevalidateRPS = 256
	}
	if cfg.PrefetchMinHits <= 0 {
		cfg.PrefetchMinHits = 3
	}
	s := &Server{
		cfg:          cfg,
		docs:         make(map[string]*docRecord),
		peers:        make(map[int]peerInfo),
		peersByURL:   make(map[string]int),
		tokens:       make(map[string]int),
		idx:          index.NewSharded(index.SelectMostRecent, index.DefaultShards),
		syms:         intern.NewSync(),
		health:       newHealthTracker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		batches:      newBatchState(),
		relays:       make(map[anonymity.Ticket]*relaySession),
		delivered:    make([]anonymity.Ticket, 4096),
		stopSweep:    make(chan struct{}),
		started:      time.Now(),
		spillq:       make(chan spillOp, 256),
		stopDisk:     make(chan struct{}),
		pop:          make(map[string]int64),
		pushed:       make(map[string]time.Time),
		stopPipeline: make(chan struct{}),
	}
	s.keySource = s.loadOrCreateSigner
	if cfg.MaxFetchRPS > 0 {
		s.pacer = newFetchPacer(cfg.MaxFetchRPS)
	}
	// Outbound traffic splits by class so origin keep-alive pools (few
	// hosts, deep) and peer pools (many hosts, shallow) are tuned
	// separately. A Config.Transport override (the chaos harness's fault
	// injector) applies to both.
	peerRT := http.RoundTripper(NewTransport(PeerIdleConnsPerHost))
	originRT := http.RoundTripper(NewTransport(OriginIdleConnsPerHost))
	if cfg.Transport != nil {
		peerRT, originRT = cfg.Transport, cfg.Transport
	}
	s.peerClient = &http.Client{Timeout: cfg.PeerTimeout, Transport: peerRT}
	s.originClient = &http.Client{Timeout: cfg.PeerTimeout, Transport: originRT}
	copts := cache.Options{OnEvict: s.onEvict}
	if cfg.DataDir != "" {
		copts.OnDemote = s.onDemote
	}
	tc, err := cache.NewTwoTier(cfg.Policy, cfg.CacheCapacity,
		int64(float64(cfg.CacheCapacity)*cfg.MemFraction), copts)
	if err != nil {
		return nil, err
	}
	s.cache = tc
	reg := obs.NewRegistry()
	s.m = newServerMetrics(reg, s)
	s.wq = s.newWorkqueue(reg)
	s.tracer = obs.NewTracer(obs.DefaultTraceDepth)
	s.logger = cfg.Logger
	if cfg.DataDir != "" {
		if err := s.openDiskTier(); err != nil {
			return nil, fmt.Errorf("proxy: disk tier: %w", err)
		}
	}
	return s, nil
}

// Start listens on addr ("127.0.0.1:0" when empty) and serves in the
// background. BaseURL reports the bound address.
func (s *Server) Start(addr string) error {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("proxy: listen: %w", err)
	}
	s.listener = ln
	s.baseURL = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	go s.httpSrv.Serve(ln)
	if s.cfg.HeartbeatTimeout > 0 {
		go s.heartbeatSweeper()
	}
	if s.restoredClients > 0 {
		// Warm restart with a restored client table: pull every peer's full
		// directory, since the in-memory browser index died with the old
		// process. Clients whose batch generation moved past the snapshot
		// are additionally caught by the generation-gap path.
		go s.ResyncAll()
	}
	s.startPipeline()
	return nil
}

// heartbeatSweeper periodically trips the breaker of peers that have been
// silent (no heartbeat, serve, or registration) past HeartbeatTimeout.
func (s *Server) heartbeatSweeper() {
	interval := s.cfg.HeartbeatTimeout / 2
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopSweep:
			return
		case <-t.C:
			s.sweepSilentPeers()
		}
	}
}

// sweepSilentPeers quarantines every peer whose breaker the silence sweep
// trips, counting each as a heartbeat miss.
func (s *Server) sweepSilentPeers() {
	for _, id := range s.health.SweepSilent(s.cfg.HeartbeatTimeout) {
		s.m.heartbeatMisses.Inc()
		s.m.breakerOpened.Inc()
		s.idx.Quarantine(id)
		if s.logger != nil {
			s.logger.Warn("breaker opened by silence sweep", "client", id)
		}
	}
}

// Close shuts the proxy down gracefully: drain in-flight requests, spill
// every staged body, persist a final state snapshot, and flush the disk
// journal to stable storage.
func (s *Server) Close() error {
	s.sweepOnce.Do(func() { close(s.stopSweep) })
	// Stop the background producers first (no new jobs), then drain the
	// workqueue: every accepted revalidation/prefetch/invalidation job
	// completes or dead-letters before the server tears down the clients
	// those jobs use.
	s.pipeOnce.Do(func() { close(s.stopPipeline) })
	s.pipelineWG.Wait()
	s.wq.Close()
	if fed := s.fed.Load(); fed != nil {
		fed.Stop()
	}
	// Drop our own pooled keep-alive connections to siblings and browsers.
	// An idle (or raced-but-unused) outbound connection pins the remote
	// server's graceful Shutdown until it times out, so a departing proxy
	// hangs up before draining its own listeners.
	s.peerClient.CloseIdleConnections()
	var err error
	if s.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err = s.httpSrv.Shutdown(ctx)
		cancel()
	}
	if s.ds != nil {
		s.diskOnce.Do(func() { close(s.stopDisk) })
		s.diskWG.Wait()
		s.saveState()
		if cerr := s.ds.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// BaseURL reports the server's base URL after Start.
func (s *Server) BaseURL() string { return s.baseURL }

// Index exposes the sharded browser index (tests and diagnostics).
func (s *Server) Index() *index.Sharded { return s.idx }

// Syms exposes the proxy's URL interner (tests and diagnostics).
func (s *Server) Syms() *intern.Sync { return s.syms }

// Handler returns the HTTP handler (usable standalone with httptest, but
// direct-forward relays need Start so the proxy knows its own base URL).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/register", s.handleRegister)
	mux.HandleFunc("/unregister", s.handleUnregister)
	mux.HandleFunc("/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("/fetch", s.handleFetch)
	mux.HandleFunc("/index/batch", s.handleIndexBatch)
	mux.HandleFunc("/queue/deadletter", s.handleQueueDeadLetter)
	mux.HandleFunc("/queue/replay", s.handleQueueReplay)
	mux.HandleFunc("/peer/digest", s.handlePeerDigest)
	mux.HandleFunc("/peer/locate", s.handlePeerLocate)
	mux.HandleFunc("/peer/invalidate", s.handlePeerInvalidate)
	mux.HandleFunc("/relay/", s.handleRelay)
	mux.HandleFunc("/report-bad", s.handleReportBad)
	mux.HandleFunc("/pubkey", s.handlePubkey)
	mux.HandleFunc("/stats", s.handleStats)
	mux.Handle("/metrics", s.m.reg.Handler())
	mux.Handle("/trace", s.tracer.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	return mux
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "proxy: POST only", http.StatusMethodNotAllowed)
		return
	}
	var req RegisterRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		http.Error(w, "proxy: bad register body", http.StatusBadRequest)
		return
	}
	if !strings.HasPrefix(req.PeerURL, "http://") && !strings.HasPrefix(req.PeerURL, "https://") {
		http.Error(w, "proxy: bad peer_url", http.StatusBadRequest)
		return
	}
	// An agent verifies every watermark it is handed under this key, so
	// no registration is granted without it.
	key, err := s.signingKey()
	if err != nil {
		http.Error(w, "proxy: signing key unavailable", http.StatusInternalServerError)
		return
	}
	tok, err := anonymity.NewKey()
	if err != nil {
		http.Error(w, "proxy: token", http.StatusInternalServerError)
		return
	}
	relayKey, err := anonymity.NewKey()
	if err != nil {
		http.Error(w, "proxy: relay key", http.StatusInternalServerError)
		return
	}
	token := base64.RawURLEncoding.EncodeToString(tok[:16])
	peerURL := strings.TrimRight(req.PeerURL, "/")
	s.mu.Lock()
	// A browser re-registering its peer URL (crash-restart without a clean
	// /unregister) supersedes its previous identity. Dropping the old
	// registration here — not just shadowing it — keeps a quarantined old
	// id's stale index entries from resolving to a registration the sweep
	// can never clear (the new id heartbeats; the old one never will).
	oldID := -1
	if pid, ok := s.peersByURL[peerURL]; ok {
		oldID = pid
		delete(s.tokens, s.peers[pid].token)
		delete(s.peers, pid)
	}
	id := s.nextID
	s.nextID++
	s.peers[id] = peerInfo{id: id, baseURL: peerURL, token: token, relayKey: relayKey}
	s.peersByURL[peerURL] = id
	s.tokens[token] = id
	s.mu.Unlock()
	if oldID >= 0 {
		s.idx.DropClient(oldID)
		s.health.Forget(oldID)
		s.batches.forget(oldID)
		s.fedNote(1)
		if s.logger != nil {
			s.logger.Info("client re-registered; superseding old identity",
				"old_client", oldID, "client", id, "peer_url", peerURL)
		}
	}
	s.health.Track(id)
	s.m.registers.Inc()
	if s.logger != nil {
		s.logger.Info("client registered", "client", id, "peer_url", req.PeerURL)
	}
	writeJSON(w, RegisterResponse{
		ClientID:  id,
		Token:     token,
		PublicKey: string(key.pubPEM),
		RelayKey:  base64.StdEncoding.EncodeToString(relayKey),
	})
}

// handleUnregister is the graceful-departure path: a closing browser drops
// all its index entries immediately instead of lingering as a
// guaranteed-false peer until fetch failures prune it.
func (s *Server) handleUnregister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "proxy: POST only", http.StatusMethodNotAllowed)
		return
	}
	id, ok := s.authClient(r)
	if !ok {
		http.Error(w, "proxy: bad client credentials", http.StatusForbidden)
		return
	}
	s.mu.Lock()
	p, exists := s.peers[id]
	if exists {
		delete(s.peers, id)
		delete(s.tokens, p.token)
		if s.peersByURL[p.baseURL] == id {
			delete(s.peersByURL, p.baseURL)
		}
	}
	s.mu.Unlock()
	if exists {
		s.idx.DropClient(id)
		s.health.Forget(id)
		s.batches.forget(id)
		s.fedNote(1)
		s.m.unregisters.Inc()
		s.m.idxDrop.Inc()
		if s.logger != nil {
			s.logger.Info("client unregistered", "client", id)
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleHeartbeat records a browser liveness signal. Peers that stop
// heartbeating past HeartbeatTimeout are quarantined by the sweeper without
// waiting for a fetch against them to fail.
func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "proxy: POST only", http.StatusMethodNotAllowed)
		return
	}
	id, ok := s.authClient(r)
	if !ok {
		http.Error(w, "proxy: bad client credentials", http.StatusForbidden)
		return
	}
	s.m.heartbeats.Inc()
	s.health.Beat(id)
	w.WriteHeader(http.StatusNoContent)
}

// authClient validates the client id + token headers of a registered
// client's request.
func (s *Server) authClient(r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.Header.Get(HeaderClient))
	if err != nil {
		return 0, false
	}
	token := r.Header.Get(HeaderToken)
	s.mu.Lock()
	defer s.mu.Unlock()
	owner, ok := s.tokens[token]
	return id, ok && owner == id
}

func (s *Server) handlePubkey(w http.ResponseWriter, r *http.Request) {
	key, err := s.signingKey()
	if err != nil {
		http.Error(w, "proxy: signing key unavailable", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/x-pem-file")
	w.Write(key.pubPEM)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Snapshot())
}

// ResyncAll asks every registered browser for a full directory re-sync —
// the index-recovery path after a proxy restart (the §2 periodic update,
// pulled on demand). It returns the number of peers that acknowledged.
func (s *Server) ResyncAll() int {
	s.mu.Lock()
	peers := make([]peerInfo, 0, len(s.peers))
	for _, p := range s.peers {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	acked := 0
	for _, p := range peers {
		if Post(context.Background(), s.peerClient, p.baseURL+"/peer/resync", nil, HeaderToken, p.token) == nil {
			acked++
		}
	}
	return acked
}

// Snapshot returns current metrics. The JSON wire shape predates the
// obs.Registry; every counter is now read back from the registry so /stats
// and /metrics can never disagree.
func (s *Server) Snapshot() Stats {
	s.mu.Lock()
	cacheDocs := s.cache.Len()
	cacheBytes := s.cache.Used()
	clients := len(s.peers)
	s.mu.Unlock()
	closed, open, halfOpen := s.health.Counts()
	var dsStats diskstore.Stats
	if s.ds != nil {
		dsStats = s.ds.StatsSnapshot()
	}
	var fedStats *federation.Stats
	if fed := s.fed.Load(); fed != nil {
		fs := fed.Snapshot()
		fedStats = &fs
	}
	wqStats := s.wq.Stats()
	m := s.m
	return Stats{
		Requests:  m.requests.Value(),
		ProxyHits: m.outProxyHit.Value() + m.outDiskHit.Value(),
		RemoteHits: m.outPeerFetch.Value() +
			m.outPeerDirect.Value() +
			m.outPeerOnion.Value(),
		OriginFetches:         m.outOrigin.Value() + m.outOriginHedged.Value(),
		FalsePeerHits:         m.falsePeer.Value(),
		TamperRejected:        m.watermarkRejected.Value(),
		WatermarkSigned:       m.watermarkSigned.Value(),
		WatermarkMemoHits:     m.watermarkMemoHits.Value(),
		WatermarkMemoEntries:  s.marks.Len(),
		RelayTimeouts:         m.relayTimeouts.Value(),
		Coalesced:             m.coalesced.Sum(),
		DocTooLarge:           m.docTooLarge.Value(),
		OriginRetries:         m.originRetries.Value(),
		HedgedWins:            m.outOriginHedged.Value(),
		Heartbeats:            m.heartbeats.Value(),
		HeartbeatMisses:       m.heartbeatMisses.Value(),
		BreakerTrips:          m.breakerOpened.Value(),
		BreakerReadmits:       m.breakerClosed.Value(),
		Unregisters:           m.unregisters.Value(),
		BreakerClosed:         closed,
		BreakerOpen:           open,
		BreakerHalfOpen:       halfOpen,
		QuarantinedEntries:    s.idx.QuarantinedEntries(),
		IndexBatches:          m.idxBatch.Value(),
		IndexBatchDeltas:      m.idxBatchDeltas.Value(),
		IndexGenGaps:          m.idxGenGaps.Value(),
		IndexDigestMismatches: m.idxDigestMismatch.Value(),
		IndexResyncPulls:      m.idxResyncPulls.Value(),
		DiskHits:              m.outDiskHit.Value(),
		DiskDocs:              dsStats.Docs,
		DiskBytes:             dsStats.LiveBytes,
		DiskWrites:            m.diskWrites.Value(),
		DiskReads:             m.diskReads.Value(),
		DiskCorrupt:           m.diskCorrupt.Value(),
		DiskEvictions:         m.diskEvictions.Value(),
		RestoredDocs:          s.restoredDocs,
		RestartToWarmSec:      s.restartToWarmSeconds(),
		ClusterFetches:        m.clusterFetches.Value(),
		ClusterServes:         m.clusterServes.Value(),
		ClusterServeHits:      m.clusterServeHits.Value(),
		ClusterLocateConfirms: m.clusterLocateConfirms.Value(),
		ClusterLocateFPs:      m.clusterLocateFPs.Value(),
		DigestsSent:           m.digestsSent.Value(),
		DigestsReceived:       m.digestsRecv.Value(),
		Federation:            fedStats,
		Revalidations:         m.revalFresh.Value() + m.revalChanged.Value(),
		RevalidationsChanged:  m.revalChanged.Value(),
		PrefetchPushes:        m.prefetchPushes.Value(),
		InvalidationsSent:     m.invalLocal.Value() + m.invalBrowser.Value() + m.invalSibling.Value(),
		InvalidationsReceived: m.invalRecv.Value(),
		Workqueue:             &wqStats,
		IndexEntries:          s.idx.Len(),
		CacheDocs:             cacheDocs,
		CacheBytes:            cacheBytes,
		Clients:               clients,
		UptimeSec:             time.Since(s.started).Seconds(),
		PeerHealth:            s.health.Snapshot(),
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
