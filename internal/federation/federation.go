// Package federation scales the browsers-aware proxy horizontally: N
// bapsproxy instances each own a rendezvous-hash slice of the client
// population and exchange periodic Bloom digests of their aggregate
// directories (proxy cache + browser index), Summary-Cache style — the
// paper's own §5 remedy for the single-proxy index ceiling. A miss in one
// proxy checks its siblings' digests, confirms a candidate with
// GET /peer/locate (digests lie at the filter's false-positive rate), and
// relays the document from the sibling before falling to the origin.
//
// Failure model: digests are pushed, so a dead sibling's summary simply
// stops arriving — once it is staleIntervals push periods old the sibling
// drops out of candidate selection without any probe traffic. Locate/fetch
// failures additionally feed a per-sibling circuit breaker (the same
// three-state machine browsers get, internal/breaker), so a sibling that is
// up but misbehaving is quarantined too and re-admitted by a half-open
// probe.
package federation

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"baps/internal/bloom"
	"baps/internal/breaker"
)

// DigestMsg is the body of POST /peer/digest: one proxy's summary of every
// URL it can resolve locally (cache + aggregate browser directory).
type DigestMsg struct {
	// From is the sender's advertised base URL (its cluster identity).
	From string `json:"from"`
	// Digest is the base64 encoding of bloom.Filter.MarshalBinary (the
	// PR 5 "bf1" format) over the sender's resolvable URL set.
	Digest string `json:"digest"`
	// Docs is the number of URLs the filter was built over.
	Docs int `json:"docs"`
}

// Config parameterizes one proxy's membership in a cluster.
type Config struct {
	// Self is this proxy's advertised base URL (its identity on the wire).
	Self string
	// Peers are the sibling proxies' base URLs (Self excluded).
	Peers []string
	// Interval is the digest push period (default 1s). A sibling digest
	// older than staleIntervals of them is distrusted.
	Interval time.Duration
	// BreakerThreshold trips a sibling's circuit breaker after this many
	// consecutive locate/fetch failures; <=0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the open→half-open delay (default 5s).
	BreakerCooldown time.Duration
	// Client performs digest pushes (the caller's peer-traffic client).
	Client *http.Client
	// Logger, when non-nil, receives exchange-loop warnings.
	Logger *slog.Logger
	// OnDigestSent/OnDigestReceived, when non-nil, are called once per
	// successful digest push/receipt (metric hooks).
	OnDigestSent     func()
	OnDigestReceived func()
}

// The exchange's fixed parameters.
const (
	// driftThreshold forces an early push once this many local mutations
	// (cache stores, index deltas) accumulate since the last one.
	driftThreshold = 256
	// staleIntervals distrusts a sibling digest older than this many push
	// intervals: the pushed summaries are the liveness signal, so
	// staleness quarantines the sibling out of candidate selection.
	staleIntervals = 4
	// digestFPR is the digest filter's false-positive target.
	digestFPR = 0.01
	// minDigestDocs floors the filter sizing so tiny directories still get
	// a usefully-sized filter.
	minDigestDocs = 1024
)

func (c *Config) fillDefaults() {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 5 * time.Second}
	}
}

// sibling is the mutable cluster-side record of one peer proxy, guarded by
// Cluster.mu.
type sibling struct {
	url     string
	filter  *bloom.Filter // latest digest received; nil until the first push
	updated time.Time     // when that digest arrived
	docs    int           // sender-reported URL count behind the filter
	br      breaker.Breaker

	confirms int64 // locates answered "held"
	fps      int64 // digest said maybe, locate said no (Bloom false positive)
	fetches  int64 // documents actually relayed from this sibling
	failures int64 // transport failures against this sibling
}

// Cluster is one proxy's view of its federation: sibling membership, their
// latest digests, and the exchange loop pushing this proxy's own digest out.
type Cluster struct {
	cfg   Config
	nodes []string // Self + Peers, the HRW placement universe

	// source snapshots the local resolvable URL set (cache keys + indexed
	// docs); called once per digest build, outside any Cluster lock.
	source func() []string

	mu            sync.Mutex
	sibs          map[string]*sibling
	dirty         int // local mutations since the last push
	digestsSent   int64
	digestsRecv   int64
	digestRejects int64
	pushFailures  int64

	kick     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a cluster membership from cfg; source snapshots the local
// resolvable URL set for digest builds. Call Start to begin exchanging.
func New(cfg Config, source func() []string) (*Cluster, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("federation: empty Self URL")
	}
	cfg.fillDefaults()
	c := &Cluster{
		cfg:    cfg,
		nodes:  append([]string{cfg.Self}, cfg.Peers...),
		source: source,
		sibs:   make(map[string]*sibling, len(cfg.Peers)),
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			return nil, fmt.Errorf("federation: self %q listed as peer", p)
		}
		if _, dup := c.sibs[p]; dup {
			return nil, fmt.Errorf("federation: duplicate peer %q", p)
		}
		c.sibs[p] = &sibling{url: p}
	}
	return c, nil
}

// Start launches the digest exchange loop (idempotent via Stop only).
func (c *Cluster) Start() {
	c.wg.Add(1)
	go c.loop()
}

// Stop terminates the exchange loop and waits for it.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Nodes returns the full placement universe (self + peers).
func (c *Cluster) Nodes() []string { return append([]string(nil), c.nodes...) }

// Self returns this proxy's cluster identity.
func (c *Cluster) Self() string { return c.cfg.Self }

// Owner reports which cluster node owns key under rendezvous hashing (client
// placement; the load generator uses the same function to aim its clients).
func (c *Cluster) Owner(key string) string { return Owner(c.nodes, key) }

// loop pushes digests every Interval, plus early whenever NoteMutation
// crosses the drift threshold.
func (c *Cluster) loop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	// Announce immediately so siblings learn about us without waiting a
	// full interval.
	c.PushDigests()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		case <-c.kick:
		}
		c.PushDigests()
	}
}

// NoteMutation records n local directory/cache mutations; crossing the drift
// threshold schedules an early digest push (non-blocking).
func (c *Cluster) NoteMutation(n int) {
	c.mu.Lock()
	c.dirty += n
	fire := c.dirty >= driftThreshold
	if fire {
		c.dirty = 0
	}
	c.mu.Unlock()
	if fire {
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
}

// PushDigests builds one digest over the local resolvable set and pushes it
// to every sibling. Push failures are counted but do not touch the breaker:
// the receiving side's staleness clock is the authoritative liveness signal.
func (c *Cluster) PushDigests() {
	urls := c.source()
	n := len(urls)
	if n < minDigestDocs {
		n = minDigestDocs
	}
	f, err := bloom.NewFilterForFPR(n, digestFPR)
	if err != nil {
		return
	}
	for _, u := range urls {
		f.Add(u)
	}
	raw, err := f.MarshalBinary()
	if err != nil {
		return
	}
	body, err := json.Marshal(DigestMsg{
		From:   c.cfg.Self,
		Digest: base64.StdEncoding.EncodeToString(raw),
		Docs:   len(urls),
	})
	if err != nil {
		return
	}
	c.mu.Lock()
	c.dirty = 0
	peers := make([]string, 0, len(c.sibs))
	for u := range c.sibs {
		peers = append(peers, u)
	}
	c.mu.Unlock()
	for _, peer := range peers {
		req, err := http.NewRequest(http.MethodPost, peer+"/peer/digest", bytes.NewReader(body))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.cfg.Client.Do(req)
		if err != nil {
			c.mu.Lock()
			c.pushFailures++
			c.mu.Unlock()
			continue
		}
		resp.Body.Close()
		c.mu.Lock()
		c.digestsSent++
		c.mu.Unlock()
		if c.cfg.OnDigestSent != nil {
			c.cfg.OnDigestSent()
		}
	}
}

// Observe ingests a sibling's pushed digest (raw bloom marshal bytes). An
// unknown sender or a corrupt filter is rejected. A digest arrival also
// refreshes the sibling's liveness clock.
func (c *Cluster) Observe(from string, raw []byte) error {
	f, err := bloom.UnmarshalFilter(raw)
	if err != nil {
		c.mu.Lock()
		c.digestRejects++
		c.mu.Unlock()
		return fmt.Errorf("federation: bad digest from %s: %w", from, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sib, ok := c.sibs[from]
	if !ok {
		c.digestRejects++
		return fmt.Errorf("federation: digest from unknown sibling %s", from)
	}
	sib.filter = f
	sib.docs = f.Count()
	sib.updated = time.Now()
	c.digestsRecv++
	if c.cfg.OnDigestReceived != nil {
		// Called under mu; the hook is an atomic counter increment.
		c.cfg.OnDigestReceived()
	}
	return nil
}

// ObserveDocs is Observe with the sender-reported URL count (the filter's
// internal count is lost by marshaling).
func (c *Cluster) ObserveDocs(from string, raw []byte, docs int) error {
	if err := c.Observe(from, raw); err != nil {
		return err
	}
	c.mu.Lock()
	if sib, ok := c.sibs[from]; ok {
		sib.docs = docs
	}
	c.mu.Unlock()
	return nil
}

// Candidates returns the siblings whose fresh digest claims url, ordered by
// rendezvous rank (so concurrent requesters spread over equally-claiming
// siblings deterministically). Stale-digest and open-breaker siblings are
// skipped — except that an open breaker past its cooldown admits the caller
// as a half-open probe, exactly like browser peers.
func (c *Cluster) Candidates(url string) []string {
	now := time.Now()
	c.mu.Lock()
	var out []string
	for _, sib := range c.sibs {
		if sib.filter == nil || now.Sub(sib.updated) > staleIntervals*c.cfg.Interval {
			continue // never heard from it, or its summary went stale
		}
		if !sib.filter.Contains(url) {
			continue
		}
		if !sib.br.Allow(now, c.cfg.BreakerThreshold, c.cfg.BreakerCooldown) {
			continue
		}
		out = append(out, sib.url)
	}
	c.mu.Unlock()
	if len(out) > 1 {
		out = RankNodes(out, url)
	}
	return out
}

// NoteConfirm records a locate that answered "held" (breaker success).
func (c *Cluster) NoteConfirm(peer string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sib, ok := c.sibs[peer]; ok {
		sib.confirms++
		sib.br.Success()
	}
}

// NoteFalsePositive records a digest membership claim the sibling's locate
// denied. The sibling answered, so this is a breaker success — only the
// filter lied, at its configured rate.
func (c *Cluster) NoteFalsePositive(peer string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sib, ok := c.sibs[peer]; ok {
		sib.fps++
		sib.br.Success()
	}
}

// NoteFetch records a document actually relayed from the sibling.
func (c *Cluster) NoteFetch(peer string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sib, ok := c.sibs[peer]; ok {
		sib.fetches++
		sib.br.Success()
	}
}

// NoteFailure records a transport failure against the sibling, reporting
// whether this failure tripped its breaker.
func (c *Cluster) NoteFailure(peer string) (tripped bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sib, ok := c.sibs[peer]
	if !ok {
		return false
	}
	sib.failures++
	return sib.br.Failure(time.Now(), c.cfg.BreakerThreshold)
}

// SiblingStat is one sibling's exported record (per-proxy /stats).
type SiblingStat struct {
	URL            string  `json:"url"`
	Breaker        string  `json:"breaker"`
	DigestAgeSec   float64 `json:"digest_age_sec"` // -1 until the first digest
	DigestDocs     int     `json:"digest_docs"`
	Stale          bool    `json:"stale"`
	Confirms       int64   `json:"locate_confirms"`
	FalsePositives int64   `json:"locate_false_positives"`
	Fetches        int64   `json:"fetches"`
	Failures       int64   `json:"failures"`
}

// Stats is the cluster-membership snapshot exported via /stats.
type Stats struct {
	Self            string        `json:"self"`
	Nodes           int           `json:"nodes"`
	DigestsSent     int64         `json:"digests_sent"`
	DigestsReceived int64         `json:"digests_received"`
	DigestRejects   int64         `json:"digest_rejects"`
	PushFailures    int64         `json:"push_failures"`
	Siblings        []SiblingStat `json:"siblings"`
}

// Snapshot exports the membership state.
func (c *Cluster) Snapshot() Stats {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Self:            c.cfg.Self,
		Nodes:           len(c.nodes),
		DigestsSent:     c.digestsSent,
		DigestsReceived: c.digestsRecv,
		DigestRejects:   c.digestRejects,
		PushFailures:    c.pushFailures,
	}
	for _, sib := range c.sibs {
		age := -1.0
		stale := true
		if sib.filter != nil {
			age = now.Sub(sib.updated).Seconds()
			stale = now.Sub(sib.updated) > staleIntervals*c.cfg.Interval
		}
		st.Siblings = append(st.Siblings, SiblingStat{
			URL:            sib.url,
			Breaker:        sib.br.State().String(),
			DigestAgeSec:   age,
			DigestDocs:     sib.docs,
			Stale:          stale,
			Confirms:       sib.confirms,
			FalsePositives: sib.fps,
			Fetches:        sib.fetches,
			Failures:       sib.failures,
		})
	}
	// Stable order for tests and readable /stats.
	for i := 1; i < len(st.Siblings); i++ {
		for j := i; j > 0 && st.Siblings[j].URL < st.Siblings[j-1].URL; j-- {
			st.Siblings[j], st.Siblings[j-1] = st.Siblings[j-1], st.Siblings[j]
		}
	}
	return st
}
