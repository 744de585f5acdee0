// Package core implements the paper's primary contribution: the
// browsers-aware request-resolution pipeline, expressed so that all five web
// caching organizations of §3.2 are configurations of the same machine.
// Comparisons between organizations therefore cannot diverge by accident of
// implementation — they differ only in which layers exist:
//
//	local browser cache  →  proxy cache  →  browser index (remote browsers)  →  upstream
//
// Organization selects the layers; everything else (LRU caches, two-tier
// memory/disk split, the index-update protocol, holder selection, document
// modification handling) is shared. The package is consumed by the
// trace-driven simulator (internal/sim) and mirrors the protocol the live
// HTTP system (internal/proxy, internal/browser) speaks on real sockets.
package core

import (
	"fmt"

	"baps/internal/cache"
	"baps/internal/index"
	"baps/internal/intern"
	"baps/internal/trace"
)

// Organization is one of the paper's five web caching organizations (§3.2).
type Organization int

const (
	// ProxyCacheOnly: no browser caches; every request goes to the proxy.
	ProxyCacheOnly Organization = iota
	// LocalBrowserCacheOnly: private browser caches, no proxy.
	LocalBrowserCacheOnly
	// GlobalBrowsersCacheOnly: browser caches shared through an index,
	// no proxy cache. Per the paper, a browser does not cache documents
	// fetched from another browser's cache.
	GlobalBrowsersCacheOnly
	// ProxyAndLocalBrowser: the conventional arrangement — private
	// browser caches in front of a proxy cache.
	ProxyAndLocalBrowser
	// BrowsersAware: the paper's contribution — ProxyAndLocalBrowser
	// plus the browser index consulted between a proxy miss and the
	// upstream fetch.
	BrowsersAware
)

// Organizations lists all five in the paper's order.
func Organizations() []Organization {
	return []Organization{ProxyCacheOnly, LocalBrowserCacheOnly, GlobalBrowsersCacheOnly, ProxyAndLocalBrowser, BrowsersAware}
}

// String names the organization as the paper does.
func (o Organization) String() string {
	switch o {
	case ProxyCacheOnly:
		return "proxy-cache-only"
	case LocalBrowserCacheOnly:
		return "local-browser-cache-only"
	case GlobalBrowsersCacheOnly:
		return "global-browsers-cache-only"
	case ProxyAndLocalBrowser:
		return "proxy-and-local-browser"
	case BrowsersAware:
		return "browsers-aware-proxy-server"
	default:
		return fmt.Sprintf("Organization(%d)", int(o))
	}
}

// ParseOrganization resolves a paper-style organization name.
func ParseOrganization(s string) (Organization, error) {
	for _, o := range Organizations() {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("core: unknown organization %q", s)
}

// hasLocal reports whether clients have browser caches.
func (o Organization) hasLocal() bool { return o != ProxyCacheOnly }

// hasProxy reports whether a proxy cache exists.
func (o Organization) hasProxy() bool {
	return o == ProxyCacheOnly || o == ProxyAndLocalBrowser || o == BrowsersAware
}

// hasIndex reports whether remote browser caches are reachable via an index.
func (o Organization) hasIndex() bool {
	return o == GlobalBrowsersCacheOnly || o == BrowsersAware
}

// ForwardMode selects how a remote-browser hit is delivered under the
// browsers-aware organization (§2's two implementation alternatives).
type ForwardMode int

const (
	// DirectForward: the proxy informs the holder, which forwards the
	// document to the requester (anonymized in the live system); the
	// document does not pass through the proxy cache.
	DirectForward ForwardMode = iota
	// FetchForward: the proxy fetches the document from the holder and
	// forwards it to the requester, optionally caching it on the way
	// (Config.ProxyCachesPeerDocs).
	FetchForward
)

// String names the mode.
func (f ForwardMode) String() string {
	if f == DirectForward {
		return "direct-forward"
	}
	return "fetch-forward"
}

// HitClass classifies where a request was satisfied. The first three are
// the paper's Figure 3 breakdown buckets.
type HitClass int

const (
	// HitLocalBrowser: served by the requester's own browser cache.
	HitLocalBrowser HitClass = iota
	// HitProxy: served by the proxy cache.
	HitProxy
	// HitRemoteBrowser: served peer-to-peer from another client's
	// browser cache.
	HitRemoteBrowser
	// HitParent: served by the upper-level (parent) proxy, when the
	// hierarchy extension is configured.
	HitParent
	// Miss: fetched from the origin.
	Miss
)

// String names the hit class.
func (h HitClass) String() string {
	switch h {
	case HitLocalBrowser:
		return "local-browser"
	case HitProxy:
		return "proxy"
	case HitRemoteBrowser:
		return "remote-browsers"
	case HitParent:
		return "parent-proxy"
	case Miss:
		return "miss"
	default:
		return fmt.Sprintf("HitClass(%d)", int(h))
	}
}

// Config assembles a System.
type Config struct {
	// Organization selects which layers exist.
	Organization Organization

	// NumClients is the number of browsers.
	NumClients int

	// NumDocs, when positive, pre-sizes the browser index for interned
	// document IDs in [0, NumDocs) (the trace's distinct-document count),
	// sparing the hot path incremental growth. Optional.
	NumDocs int

	// ProxyCapacity is the proxy cache size in bytes (ignored when the
	// organization has no proxy).
	ProxyCapacity int64

	// BrowserCapacity holds the per-client browser cache sizes in bytes
	// (ignored when the organization has no browser caches). Length must
	// equal NumClients.
	BrowserCapacity []int64

	// ProxyPolicy and BrowserPolicy select replacement policies; the
	// paper uses LRU for both.
	ProxyPolicy   cache.Policy
	BrowserPolicy cache.Policy

	// MemFraction is the memory portion of the proxy cache (paper: 1/10
	// of the proxy cache size, after the Squid configuration study it
	// cites).
	MemFraction float64

	// BrowserMemFraction is the memory portion of each browser cache.
	// The paper sets it separately from the proxy's and notes the choice
	// is conservative because "the memory cache portion in a browser can
	// be much larger than that for the proxy cache in practice" — §1
	// even describes fully memory-resident browser caches. Zero means
	// "use MemFraction".
	BrowserMemFraction float64

	// IndexMode selects the §2 update protocol; IndexThreshold is the
	// periodic-mode changed-fraction trigger.
	IndexMode      index.Mode
	IndexThreshold float64

	// IndexStrategy selects the remote-holder preference order.
	IndexStrategy index.Strategy

	// ForwardMode selects §2's delivery alternative for remote hits.
	ForwardMode ForwardMode

	// ProxyCachesPeerDocs: under FetchForward, the proxy also caches the
	// document it relayed from a browser.
	ProxyCachesPeerDocs bool

	// CacheRemoteHits: the requester's browser caches documents received
	// from remote browsers (always false for GlobalBrowsersCacheOnly,
	// where the paper forbids it).
	CacheRemoteHits bool

	// DocTTLSec, when positive, stamps every index entry with a TTL
	// ("provided by the data source", §2): after it expires the entry is
	// no longer offered as a remote holder and is pruned on contact.
	// Zero disables expiry.
	DocTTLSec float64

	// RevalidateAfterSec, when positive, models the live system's
	// background revalidation producer (DESIGN.md §14): a proxy copy whose
	// last known-fresh contact is older than this age has been
	// conditionally re-checked in the background, so an origin-side
	// modification surfaces as a fresh proxy hit (plus a background origin
	// fetch, counted via Outcome.Revalidated) instead of a user-visible
	// stale miss. Zero reproduces the paper (no revalidation).
	RevalidateAfterSec float64

	// ParentCapacity, when positive, inserts an upper-level proxy cache
	// between the organization and the origin (the paper's "upper level
	// proxy" that misses are forwarded to). It is consulted after every
	// other layer and caches everything passing through it.
	ParentCapacity int64
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.NumClients <= 0 {
		return fmt.Errorf("core: NumClients must be > 0")
	}
	if c.Organization.hasProxy() && c.ProxyCapacity < 0 {
		return fmt.Errorf("core: negative ProxyCapacity")
	}
	if c.Organization.hasLocal() {
		if len(c.BrowserCapacity) != c.NumClients {
			return fmt.Errorf("core: BrowserCapacity has %d entries for %d clients", len(c.BrowserCapacity), c.NumClients)
		}
		for i, b := range c.BrowserCapacity {
			if b < 0 {
				return fmt.Errorf("core: negative BrowserCapacity[%d]", i)
			}
		}
	}
	if c.MemFraction <= 0 || c.MemFraction > 1 {
		return fmt.Errorf("core: MemFraction %g out of (0,1]", c.MemFraction)
	}
	if c.BrowserMemFraction < 0 || c.BrowserMemFraction > 1 {
		return fmt.Errorf("core: BrowserMemFraction %g out of [0,1]", c.BrowserMemFraction)
	}
	if (c.IndexMode == index.Periodic || c.IndexMode == index.Batched) &&
		(c.IndexThreshold <= 0 || c.IndexThreshold > 1) {
		return fmt.Errorf("core: IndexThreshold %g out of (0,1] for %s mode", c.IndexThreshold, c.IndexMode)
	}
	if c.DocTTLSec < 0 {
		return fmt.Errorf("core: negative DocTTLSec")
	}
	if c.ParentCapacity < 0 {
		return fmt.Errorf("core: negative ParentCapacity")
	}
	if c.RevalidateAfterSec < 0 {
		return fmt.Errorf("core: negative RevalidateAfterSec")
	}
	return nil
}

// Outcome reports how one request was resolved.
type Outcome struct {
	// Class is where the request was satisfied.
	Class HitClass
	// Tier is the storage tier at the serving cache (meaningful for
	// hits; misses report TierDisk).
	Tier cache.Tier
	// Provider is the holder's client id for remote-browser hits, -1
	// otherwise.
	Provider int
	// Size is the delivered body size in bytes.
	Size int64
	// FalseIndexHits counts stale index entries contacted before this
	// request resolved (only possible under the periodic protocol).
	FalseIndexHits int
	// StaleLocal and StaleProxy report that a cached copy existed at the
	// respective layer but the document had been modified at the origin,
	// so the copy could not be used (counted as a miss there, §3.2).
	StaleLocal bool
	StaleProxy bool
	// Revalidated reports a proxy hit that only exists because background
	// revalidation refreshed a modified copy before this access (one
	// background origin fetch was spent on it).
	Revalidated bool
}

// System is one configured caching organization processing a request
// stream. It is not safe for concurrent use: the simulator drives one
// System per goroutine.
type System struct {
	cfg    Config
	proxy  *cache.IDTwoTier
	parent *cache.IDTwoTier
	// browsers holds every client's browser cache as a member of one pool:
	// member i is client i's cache, published as client i by pubs.
	browsers *cache.Pool
	idx      *index.Index
	pubs     *index.Publishers
	now      float64

	// ordBuf is the reused holder-candidate buffer for remoteLookup, so a
	// proxy miss costs no allocation.
	ordBuf []index.Entry

	// revalStamp[doc] is the proxy copy's last known-fresh time under
	// background revalidation (nil when disabled).
	revalStamp []float64
}

// New builds a System from cfg.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg}
	if err := s.arm(); err != nil {
		return nil, err
	}
	return s, nil
}

// arm readies every layer s.cfg's organization walks for a fresh replay:
// a layer already allocated is emptied in place at the configured
// capacities, a missing one is built. Layers the organization lacks are left
// as they are — allocated but unreachable, since every path that reaches a
// layer tests the organization first — so a System that has served several
// organizations keeps the union of their layers for the next Reset.
func (s *System) arm() error {
	cfg := &s.cfg
	org := cfg.Organization
	if org.hasIndex() {
		if s.idx == nil {
			s.idx = index.New(cfg.IndexStrategy)
		} else {
			s.idx.Reset()
		}
		if cfg.NumDocs > 0 {
			s.idx.Grow(cfg.NumDocs)
		}
	}
	if org.hasProxy() {
		mem := int64(float64(cfg.ProxyCapacity) * cfg.MemFraction)
		if s.proxy == nil {
			p, err := cache.NewIDTwoTier(cfg.ProxyPolicy, cfg.ProxyCapacity, mem)
			if err != nil {
				return fmt.Errorf("core: proxy cache: %w", err)
			}
			s.proxy = p
		} else {
			s.proxy.ResetTiers(cfg.ProxyCapacity, mem)
		}
	}
	if cfg.ParentCapacity > 0 {
		mem := int64(float64(cfg.ParentCapacity) * cfg.MemFraction)
		if s.parent == nil {
			p, err := cache.NewIDTwoTier(cfg.ProxyPolicy, cfg.ParentCapacity, mem)
			if err != nil {
				return fmt.Errorf("core: parent cache: %w", err)
			}
			s.parent = p
		} else {
			s.parent.ResetTiers(cfg.ParentCapacity, mem)
		}
	}
	if org.hasLocal() {
		browserMem := cfg.BrowserMemFraction
		if browserMem == 0 {
			browserMem = cfg.MemFraction
		}
		if s.browsers == nil {
			pool, err := cache.NewPool(cfg.BrowserPolicy, cfg.NumClients)
			if err != nil {
				return fmt.Errorf("core: browser caches: %w", err)
			}
			s.browsers = pool
		} else {
			s.browsers.Reset()
		}
		for i, capacity := range cfg.BrowserCapacity {
			s.browsers.ResetTiers(i, capacity, int64(float64(capacity)*browserMem))
		}
		if org.hasIndex() {
			if s.pubs == nil {
				pubs, err := index.NewPublishers(s.idx, cfg.NumClients, cfg.IndexMode, cfg.IndexThreshold)
				if err != nil {
					return err
				}
				s.pubs = pubs
			} else {
				s.pubs.Reset(cfg.IndexThreshold)
			}
		}
	}
	s.now = 0
	// Revalidation needs a proxy.
	s.revalStamp = nil
	if cfg.RevalidateAfterSec > 0 && org.hasProxy() {
		s.revalStamp = make([]float64, cfg.NumDocs)
	}
	return nil
}

// Access resolves one request through the organization's layers and returns
// where it was satisfied. Requests must be presented in trace order.
func (s *System) Access(r trace.Request) Outcome {
	out := Outcome{Provider: -1, Size: r.Size, Class: Miss}
	s.access(r, &out)
	return out
}

// access resolves r into out, which arrives set to a miss.
func (s *System) access(r trace.Request, out *Outcome) {
	s.now = r.Time

	// 1. Local browser cache.
	if s.cfg.Organization.hasLocal() {
		if doc, tier, ok := s.browsers.GetTier(r.Client, r.Doc); ok {
			if doc.Size == r.Size {
				out.Class = HitLocalBrowser
				out.Tier = tier
				return
			}
			// Modified at the origin: unusable copy (§3.2).
			out.StaleLocal = true
			s.browsers.Remove(r.Client, r.Doc)
			if s.cfg.Organization.hasIndex() {
				s.pubs.OnEvict(r.Client, r.Doc, s.browsers.Len(r.Client))
			}
		}
	}

	// 2. Proxy cache.
	if s.cfg.Organization.hasProxy() {
		if doc, tier, ok := s.proxy.GetTier(r.Doc); ok {
			if doc.Size == r.Size {
				s.stampFresh(r.Doc)
				out.Class = HitProxy
				out.Tier = tier
				s.deliverToBrowser(r)
				return
			}
			// Modified at the origin. With the revalidation producer
			// enabled, a copy past the freshness age has already been
			// conditionally re-fetched in the background: the request
			// sees a current proxy hit at the price of one background
			// origin fetch instead of a stale miss — provided the proxy
			// admitted the new version; otherwise its copy is stale.
			if s.revalStamp != nil && s.now-s.freshStamp(r.Doc) >= s.cfg.RevalidateAfterSec {
				if _, admitted := s.proxy.Put(cache.IDDoc{ID: r.Doc, Size: r.Size}); admitted {
					s.stampFresh(r.Doc)
					out.Class = HitProxy
					out.Tier = cache.TierMemory // refetched bodies land in memory
					out.Revalidated = true
					s.deliverToBrowser(r)
					return
				}
			}
			out.StaleProxy = true
			s.proxy.Remove(r.Doc)
		}
	}

	// 3. Browser index → remote browser caches.
	if s.cfg.Organization.hasIndex() {
		provider, tier, falseHits, ok := s.remoteLookup(r)
		out.FalseIndexHits = falseHits
		if ok {
			out.Class = HitRemoteBrowser
			out.Provider = provider
			out.Tier = tier
			if s.cfg.Organization == BrowsersAware {
				if s.cfg.ForwardMode == FetchForward && s.cfg.ProxyCachesPeerDocs {
					s.proxy.Put(cache.IDDoc{ID: r.Doc, Size: r.Size})
				}
				if s.cfg.CacheRemoteHits {
					s.deliverToBrowser(r)
				}
			}
			// GlobalBrowsersCacheOnly: the paper forbids caching
			// documents fetched from another browser.
			return
		}
	}

	// 4. Upper-level (parent) proxy, when configured.
	if s.parent != nil {
		if doc, tier, ok := s.parent.GetTier(r.Doc); ok && doc.Size == r.Size {
			out.Class = HitParent
			out.Tier = tier
			if s.cfg.Organization.hasProxy() {
				s.proxy.Put(cache.IDDoc{ID: r.Doc, Size: r.Size})
			}
			s.deliverToBrowser(r)
			return
		} else if ok {
			s.parent.Remove(r.Doc)
		}
	}

	// 5. Origin fetch.
	if s.parent != nil {
		s.parent.Put(cache.IDDoc{ID: r.Doc, Size: r.Size})
	}
	if s.cfg.Organization.hasProxy() {
		s.proxy.Put(cache.IDDoc{ID: r.Doc, Size: r.Size})
		s.stampFresh(r.Doc)
	}
	s.deliverToBrowser(r)
	return
}

// stampFresh records the proxy copy's last known-fresh time (no-op with
// revalidation disabled). The slice grows lazily for traces that did not
// pre-declare NumDocs.
func (s *System) stampFresh(doc intern.ID) {
	if s.revalStamp == nil {
		return
	}
	for int(doc) >= len(s.revalStamp) {
		s.revalStamp = append(s.revalStamp, 0)
	}
	s.revalStamp[int(doc)] = s.now
}

// freshStamp reads the last known-fresh time for doc (zero when unseen).
func (s *System) freshStamp(doc intern.ID) float64 {
	if int(doc) >= len(s.revalStamp) {
		return 0
	}
	return s.revalStamp[int(doc)]
}

// deliverToBrowser stores the delivered document in the requester's browser
// cache and publishes the index update.
func (s *System) deliverToBrowser(r trace.Request) {
	if !s.cfg.Organization.hasLocal() {
		return
	}
	evicted, admitted := s.browsers.Put(r.Client, cache.IDDoc{ID: r.Doc, Size: r.Size})
	if !s.cfg.Organization.hasIndex() {
		return
	}
	// Browser cache capacity evictions → §2 invalidation messages (or
	// batched changes), each with the resident count it left behind.
	resident := s.browsers.Len(r.Client)
	for i, d := range evicted {
		s.pubs.OnEvict(r.Client, d.ID, resident+len(evicted)-1-i)
	}
	if admitted {
		e := index.Entry{
			Doc:   r.Doc,
			Size:  r.Size,
			Stamp: s.now,
		}
		if s.cfg.DocTTLSec > 0 {
			e.Expire = s.now + s.cfg.DocTTLSec
		}
		s.pubs.OnInsert(r.Client, e, resident)
	}
}

// remoteLookup walks the index's preferred holders for r.Doc, contacting
// each until one actually holds a current copy. Stale index entries (only
// possible under the periodic protocol, or after origin-side modification)
// are pruned and counted as false hits when a contact was wasted. The
// candidate list lands in the system's reused scratch buffer, so the walk
// performs no allocation.
func (s *System) remoteLookup(r trace.Request) (provider int, tier cache.Tier, falseHits int, ok bool) {
	now := 0.0
	if s.cfg.DocTTLSec > 0 {
		now = s.now
	}
	s.ordBuf = s.idx.AppendOrdered(s.ordBuf[:0], r.Doc, r.Client, now)
	for _, e := range s.ordBuf {
		if e.Size != r.Size {
			// The index itself proves the holder's copy predates the
			// modification; no contact is wasted.
			continue
		}
		doc, t, found := s.browsers.GetTier(e.Client, r.Doc)
		if found && doc.Size == r.Size {
			s.idx.AccountServe(e.Client)
			return e.Client, t, falseHits, true
		}
		// Contacted a browser that no longer has a usable copy.
		falseHits++
		s.idx.Remove(e.Client, r.Doc)
	}
	return -1, cache.TierDisk, falseHits, false
}

// Reset re-arms the system for a fresh replay under cfg, reusing the
// allocated cache, index, and publisher storage in place. The organization
// may change: a layer the new organization walks but the system has never
// built is built, and layers it does not walk stay allocated but
// unreachable, so one System can serve every organization of a sweep. Reset
// reports false — and the caller builds a new System — when cfg is invalid
// or its structure is incompatible with the storage already built (a
// different client count, replacement policy, index mode or strategy,
// or parent presence). Capacities, memory
// fractions, thresholds, TTLs, and forwarding flags may all change freely.
func (s *System) Reset(cfg Config) bool {
	if err := cfg.Validate(); err != nil {
		return false
	}
	old := &s.cfg
	if cfg.NumClients != old.NumClients ||
		cfg.ProxyPolicy != old.ProxyPolicy ||
		cfg.BrowserPolicy != old.BrowserPolicy ||
		cfg.IndexMode != old.IndexMode ||
		cfg.IndexStrategy != old.IndexStrategy ||
		(cfg.ParentCapacity > 0) != (old.ParentCapacity > 0) {
		return false
	}
	s.cfg = cfg
	return s.arm() == nil
}

// FlushIndex forces all pending periodic index updates through (end-of-run
// bookkeeping and tests).
func (s *System) FlushIndex() {
	if !s.cfg.Organization.hasIndex() {
		return
	}
	for i := range s.cfg.NumClients {
		s.pubs.Flush(i)
	}
}

// IndexMessageStats totals the §5 index-maintenance traffic across all
// publishers: protocol messages sent and the index entries they carried.
// Zero when the organization has no index.
func (s *System) IndexMessageStats() (msgs, entriesShipped int64) {
	if !s.cfg.Organization.hasIndex() {
		return 0, 0
	}
	for i := range s.cfg.NumClients {
		msgs += s.pubs.Messages(i)
		entriesShipped += s.pubs.EntriesShipped(i)
	}
	return msgs, entriesShipped
}

// Proxy exposes the proxy cache (nil when the organization has none).
func (s *System) Proxy() *cache.IDTwoTier {
	if !s.cfg.Organization.hasProxy() {
		return nil
	}
	return s.proxy
}

// Parent exposes the upper-level proxy cache (nil unless configured).
func (s *System) Parent() *cache.IDTwoTier { return s.parent }

// Browser exposes client i's browser cache (nil when the organization has
// none).
func (s *System) Browser(i int) *cache.IDTwoTier {
	if !s.cfg.Organization.hasLocal() {
		return nil
	}
	return s.browsers.Member(i)
}

// Index exposes the browser index (nil when the organization has none).
func (s *System) Index() *index.Index {
	if !s.cfg.Organization.hasIndex() {
		return nil
	}
	return s.idx
}

// Config returns the configuration the system is armed with (by New or the
// last Reset).
func (s *System) Config() Config { return s.cfg }
