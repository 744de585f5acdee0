package core

import (
	"testing"

	"baps/internal/cache"
	"baps/internal/index"
	"baps/internal/intern"
	"baps/internal/trace"
)

// testSyms interns test URLs to document IDs, as the trace loader would.
var testSyms = intern.NewTable(0)

func did(url string) intern.ID { return testSyms.Intern(url) }

// cfg builds a small BrowsersAware config; tests mutate as needed.
func cfg(org Organization, clients int, proxyCap, browserCap int64) Config {
	caps := make([]int64, clients)
	for i := range caps {
		caps[i] = browserCap
	}
	return Config{
		Organization:        org,
		NumClients:          clients,
		ProxyCapacity:       proxyCap,
		BrowserCapacity:     caps,
		ProxyPolicy:         cache.LRU,
		BrowserPolicy:       cache.LRU,
		MemFraction:         0.1,
		IndexMode:           index.Immediate,
		IndexStrategy:       index.SelectMostRecent,
		ForwardMode:         FetchForward,
		ProxyCachesPeerDocs: true,
		CacheRemoteHits:     true,
	}
}

func mustNew(t *testing.T, c Config) *System {
	t.Helper()
	s, err := New(c)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func req(tm float64, client int, url string, size int64) trace.Request {
	return trace.Request{Time: tm, Client: client, URL: url, Doc: did(url), Size: size}
}

func TestOrganizationNames(t *testing.T) {
	for _, o := range Organizations() {
		got, err := ParseOrganization(o.String())
		if err != nil || got != o {
			t.Errorf("round trip %v failed: %v %v", o, got, err)
		}
	}
	if _, err := ParseOrganization("bogus"); err == nil {
		t.Error("ParseOrganization accepted bogus")
	}
	if Organization(99).String() != "Organization(99)" {
		t.Error("unknown organization String wrong")
	}
	if BrowsersAware.String() != "browsers-aware-proxy-server" {
		t.Error("paper name wrong")
	}
}

func TestForwardModeAndHitClassStrings(t *testing.T) {
	if DirectForward.String() != "direct-forward" || FetchForward.String() != "fetch-forward" {
		t.Error("ForwardMode strings wrong")
	}
	want := map[HitClass]string{HitLocalBrowser: "local-browser", HitProxy: "proxy", HitRemoteBrowser: "remote-browsers", Miss: "miss", HitClass(9): "HitClass(9)"}
	for h, w := range want {
		if h.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(h), h.String(), w)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	muts := []func(*Config){
		func(c *Config) { c.NumClients = 0 },
		func(c *Config) { c.ProxyCapacity = -1 },
		func(c *Config) { c.BrowserCapacity = c.BrowserCapacity[:1] },
		func(c *Config) { c.BrowserCapacity[0] = -5 },
		func(c *Config) { c.MemFraction = 0 },
		func(c *Config) { c.MemFraction = 2 },
		func(c *Config) { c.IndexMode = index.Periodic; c.IndexThreshold = 0 },
	}
	for i, mut := range muts {
		c := cfg(BrowsersAware, 3, 1000, 100)
		mut(&c)
		if _, err := New(c); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestProxyCacheOnlyFlow(t *testing.T) {
	s := mustNew(t, cfg(ProxyCacheOnly, 2, 1000, 0))
	if out := s.Access(req(0, 0, "u", 100)); out.Class != Miss {
		t.Fatalf("first access: %v", out.Class)
	}
	// Same client again: proxy hit, never a local hit (no browser caches).
	if out := s.Access(req(1, 0, "u", 100)); out.Class != HitProxy {
		t.Fatalf("second access: %v", out.Class)
	}
	// Other client benefits from the proxy too.
	if out := s.Access(req(2, 1, "u", 100)); out.Class != HitProxy {
		t.Fatalf("cross-client: %v", out.Class)
	}
	if s.Browser(0) != nil || s.Index() != nil {
		t.Fatal("proxy-only org must have no browsers or index")
	}
}

func TestLocalBrowserCacheOnlyFlow(t *testing.T) {
	s := mustNew(t, cfg(LocalBrowserCacheOnly, 2, 0, 1000))
	s.Access(req(0, 0, "u", 100))
	if out := s.Access(req(1, 0, "u", 100)); out.Class != HitLocalBrowser {
		t.Fatalf("local re-access: %v", out.Class)
	}
	// Another client cannot see client 0's cache: miss.
	if out := s.Access(req(2, 1, "u", 100)); out.Class != Miss {
		t.Fatalf("cross-client without sharing: %v", out.Class)
	}
	if s.Proxy() != nil {
		t.Fatal("local-only org must have no proxy")
	}
}

func TestGlobalBrowsersFlowAndNoPeerCaching(t *testing.T) {
	s := mustNew(t, cfg(GlobalBrowsersCacheOnly, 2, 0, 1000))
	s.Access(req(0, 0, "u", 100)) // miss; client 0 caches
	out := s.Access(req(1, 1, "u", 100))
	if out.Class != HitRemoteBrowser || out.Provider != 0 {
		t.Fatalf("remote hit: %+v", out)
	}
	// Paper: a browser does NOT cache documents fetched from another
	// browser cache, so client 1 misses locally again and re-hits remote.
	out = s.Access(req(2, 1, "u", 100))
	if out.Class != HitRemoteBrowser {
		t.Fatalf("second access should be remote again, got %v", out.Class)
	}
	if _, ok := s.Browser(1).Peek(did("u")); ok {
		t.Fatal("peer-fetched doc cached in requester's browser (forbidden)")
	}
}

func TestProxyAndLocalBrowserFlow(t *testing.T) {
	s := mustNew(t, cfg(ProxyAndLocalBrowser, 2, 1000, 1000))
	s.Access(req(0, 0, "u", 100)) // miss: cached at proxy and browser 0
	if out := s.Access(req(1, 0, "u", 100)); out.Class != HitLocalBrowser {
		t.Fatalf("local hit expected: %v", out.Class)
	}
	if out := s.Access(req(2, 1, "u", 100)); out.Class != HitProxy {
		t.Fatalf("proxy hit expected: %v", out.Class)
	}
	// After the proxy hit, client 1's browser has it too.
	if out := s.Access(req(3, 1, "u", 100)); out.Class != HitLocalBrowser {
		t.Fatalf("browser should have cached proxy hit: %v", out.Class)
	}
}

func TestBrowsersAwareRemoteHit(t *testing.T) {
	// Proxy too small to retain the doc; browsers big enough — the
	// paper's first miss type (replaced in proxy, retained in browsers).
	c := cfg(BrowsersAware, 2, 150, 1000)
	s := mustNew(t, c)
	s.Access(req(0, 0, "u", 100)) // miss; proxy + browser 0 cache it
	s.Access(req(1, 0, "x", 100)) // evicts u from the 150-byte proxy
	out := s.Access(req(2, 1, "u", 100))
	if out.Class != HitRemoteBrowser || out.Provider != 0 {
		t.Fatalf("expected remote-browser hit from client 0: %+v", out)
	}
	// FetchForward + ProxyCachesPeerDocs: the proxy now has u again.
	if _, ok := s.Proxy().Peek(did("u")); !ok {
		t.Fatal("fetch-forward did not repopulate the proxy cache")
	}
	// CacheRemoteHits: requester's browser has it → local hit next.
	if out := s.Access(req(3, 1, "u", 100)); out.Class != HitLocalBrowser {
		t.Fatalf("requester should have cached the peer doc: %v", out.Class)
	}
}

func TestBrowsersAwareDirectForwardSkipsProxy(t *testing.T) {
	c := cfg(BrowsersAware, 2, 150, 1000)
	c.ForwardMode = DirectForward
	s := mustNew(t, c)
	s.Access(req(0, 0, "u", 100))
	s.Access(req(1, 0, "x", 100)) // evict u from proxy
	out := s.Access(req(2, 1, "u", 100))
	if out.Class != HitRemoteBrowser {
		t.Fatalf("remote hit expected: %v", out.Class)
	}
	if _, ok := s.Proxy().Peek(did("u")); ok {
		t.Fatal("direct-forward must not populate the proxy cache")
	}
}

func TestBrowsersAwareNoCacheRemoteHitsOption(t *testing.T) {
	c := cfg(BrowsersAware, 2, 150, 1000)
	c.CacheRemoteHits = false
	s := mustNew(t, c)
	s.Access(req(0, 0, "u", 100))
	s.Access(req(1, 0, "x", 100))
	if out := s.Access(req(2, 1, "u", 100)); out.Class != HitRemoteBrowser {
		t.Fatalf("remote hit expected: %v", out.Class)
	}
	if _, ok := s.Browser(1).Peek(did("u")); ok {
		t.Fatal("CacheRemoteHits=false but requester cached the doc")
	}
}

func TestModifiedDocumentIsMissEverywhere(t *testing.T) {
	s := mustNew(t, cfg(BrowsersAware, 2, 1000, 1000))
	s.Access(req(0, 0, "u", 100))
	s.Access(req(1, 1, "u", 100))
	// Origin modifies the document: new size 200. All cached copies are
	// stale; the request must be a Miss with stale flags set.
	out := s.Access(req(2, 0, "u", 200))
	if out.Class != Miss {
		t.Fatalf("modified doc served from cache: %v", out.Class)
	}
	if !out.StaleLocal {
		t.Error("StaleLocal not reported")
	}
	// Client 1 still has the old copy; the index must not offer it as a
	// remote hit for the new version (entry size mismatch). After client
	// 0's refetch, a request by 1 gets the new version via local-miss →
	// proxy (fresh) path.
	out = s.Access(req(3, 1, "u", 200))
	if out.Class != HitProxy {
		t.Fatalf("client 1 should hit fresh proxy copy: %v", out.Class)
	}
	if !out.StaleLocal {
		t.Error("client 1's stale local copy not flagged")
	}
}

func TestStaleProxyFlag(t *testing.T) {
	s := mustNew(t, cfg(ProxyCacheOnly, 1, 1000, 0))
	s.Access(req(0, 0, "u", 100))
	out := s.Access(req(1, 0, "u", 150))
	if out.Class != Miss || !out.StaleProxy {
		t.Fatalf("stale proxy copy: %+v", out)
	}
	// Fresh copy is now cached.
	if out := s.Access(req(2, 0, "u", 150)); out.Class != HitProxy {
		t.Fatalf("refetch not cached: %v", out.Class)
	}
}

// A revalidation whose new version the proxy cannot hold is no hit: the
// request sees the stale copy (which is dropped) and fetches upstream, and
// the proxy never claims a version it refused.
func TestRevalidationRefusedByProxyIsStale(t *testing.T) {
	c := cfg(ProxyCacheOnly, 1, 1000, 0)
	c.RevalidateAfterSec = 1
	s := mustNew(t, c)
	s.Access(req(0, 0, "u", 500))
	for i, tm := range []float64{10, 20} {
		out := s.Access(req(tm, 0, "u", 2000))
		if out.Class != Miss || out.Revalidated || out.StaleProxy != (i == 0) {
			t.Fatalf("access %d of a 2000 B version past a 1000 B proxy: %+v", i, out)
		}
		if d, ok := s.Proxy().Peek(did("u")); ok {
			t.Fatalf("access %d: proxy still holds %+v", i, d)
		}
	}
}

func TestStaleIndexFalseHits(t *testing.T) {
	// Index staleness (a batched/lost invalidation): the index lists a
	// holder whose cache no longer has the document. The contact is
	// wasted (false hit), the entry is pruned, and the request misses.
	c := cfg(BrowsersAware, 2, 50 /* too small for u */, 1000)
	s := mustNew(t, c)
	s.Access(req(0, 0, "u", 100)) // client 0 caches u; index records it
	// Simulate an unflushed eviction: drop u from the browser cache
	// without an invalidation message (Remove bypasses OnEvict).
	s.Browser(0).Remove(did("u"))
	if !s.Index().Has(0, did("u")) {
		t.Fatal("test setup: index entry should still exist")
	}
	out := s.Access(req(1, 1, "u", 100))
	if out.Class != Miss {
		t.Fatalf("stale index entry should lead to a miss, got %v", out.Class)
	}
	if out.FalseIndexHits != 1 {
		t.Fatalf("FalseIndexHits = %d, want 1", out.FalseIndexHits)
	}
	// The wasted contact prunes the entry.
	if s.Index().Has(0, did("u")) {
		t.Fatal("stale entry not pruned after false hit")
	}
}

func TestRemoteLookupFallsThroughStaleToGoodHolder(t *testing.T) {
	c := cfg(BrowsersAware, 3, 50 /* proxy never holds u */, 1000)
	c.IndexStrategy = index.SelectMostRecent
	s := mustNew(t, c)
	s.Access(req(0, 1, "u", 100)) // client 1 caches u (stamp 0)
	s.Access(req(1, 2, "u", 100)) // remote hit; client 2 caches u (stamp 1)
	// Client 2 (the most recent holder) silently loses its copy.
	s.Browser(2).Remove(did("u"))
	out := s.Access(req(2, 0, "u", 100))
	if out.Class != HitRemoteBrowser {
		t.Fatalf("expected remote hit via fallback, got %v (false hits %d)", out.Class, out.FalseIndexHits)
	}
	if out.Provider != 1 {
		t.Fatalf("provider = %d, want 1 (the holder that still has u)", out.Provider)
	}
	if out.FalseIndexHits != 1 {
		t.Fatalf("FalseIndexHits = %d, want 1 (client 2 contacted first)", out.FalseIndexHits)
	}
}

func TestBreakdownBucketsSumToRequests(t *testing.T) {
	s := mustNew(t, cfg(BrowsersAware, 3, 500, 300))
	counts := map[HitClass]int{}
	urls := []string{"a", "b", "c", "d", "e"}
	n := 0
	for i := 0; i < 200; i++ {
		u := urls[i%len(urls)]
		out := s.Access(req(float64(i), i%3, u, int64(50+10*(i%len(urls)))))
		counts[out.Class]++
		n++
	}
	sum := counts[HitLocalBrowser] + counts[HitProxy] + counts[HitRemoteBrowser] + counts[Miss]
	if sum != n {
		t.Fatalf("breakdown sums to %d, want %d: %v", sum, n, counts)
	}
}

func TestMemoryTierReporting(t *testing.T) {
	s := mustNew(t, cfg(ProxyAndLocalBrowser, 1, 10_000, 10_000))
	s.Access(req(0, 0, "u", 100))
	out := s.Access(req(1, 0, "u", 100))
	if out.Class != HitLocalBrowser || out.Tier != cache.TierMemory {
		t.Fatalf("fresh doc should be a memory hit: %+v", out)
	}
}

// A System's browser caches are the members of one pool and its publishers
// one slice: building a System costs as many allocations for a thousand
// clients as for ten.
func TestNewAllocationsIndependentOfClients(t *testing.T) {
	for _, org := range []Organization{LocalBrowserCacheOnly, BrowsersAware} {
		var counts []float64
		for _, n := range []int{10, 1000} {
			c := cfg(org, n, 1000, 1000)
			counts = append(counts, testing.AllocsPerRun(5, func() { mustNew(t, c) }))
		}
		if counts[0] != counts[1] {
			t.Errorf("%v: New made %.0f allocations for 10 clients, %.0f for 1000", org, counts[0], counts[1])
		}
	}
}
