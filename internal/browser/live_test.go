package browser

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"baps/internal/origin"
	"baps/internal/proxy"
)

// cluster wires an origin, a browsers-aware proxy and n agents together on
// loopback HTTP.
type cluster struct {
	origin   *origin.Server
	originTS *httptest.Server
	proxy    *proxy.Server
	agents   []*Agent
}

func startCluster(t *testing.T, n int, pcfg proxy.Config, mutate func(*Config)) *cluster {
	t.Helper()
	c := &cluster{origin: origin.New(1234)}
	c.originTS = httptest.NewServer(c.origin.Handler())
	t.Cleanup(c.originTS.Close)

	if pcfg.KeyBits == 0 {
		pcfg = proxy.DefaultConfig()
		pcfg.KeyBits = 1024 // fast test keys
	}
	p, err := proxy.New(pcfg)
	if err != nil {
		t.Fatalf("proxy.New: %v", err)
	}
	if err := p.Start(""); err != nil {
		t.Fatalf("proxy.Start: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	c.proxy = p

	for i := 0; i < n; i++ {
		acfg := DefaultConfig(p.BaseURL())
		acfg.CacheCapacity = 1 << 20
		if mutate != nil {
			mutate(&acfg)
		}
		a, err := New(acfg)
		if err != nil {
			t.Fatalf("browser.New(%d): %v", i, err)
		}
		t.Cleanup(func() { a.Close() })
		c.agents = append(c.agents, a)
	}
	return c
}

func (c *cluster) url(path string) string { return c.originTS.URL + path }

// getFlushed is Get followed by FlushIndex: the proxy's index reflects the
// agent's cache when it returns.
func getFlushed(t *testing.T, a *Agent, u string) []byte {
	t.Helper()
	body, _, err := a.Get(context.Background(), u)
	if err == nil {
		err = a.FlushIndex()
	}
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func testProxyConfig(forward proxy.ForwardMode) proxy.Config {
	cfg := proxy.DefaultConfig()
	cfg.KeyBits = 1024
	cfg.CacheCapacity = 1 << 20
	cfg.Forward = forward
	return cfg
}

func TestEndToEndFetchForward(t *testing.T) {
	c := startCluster(t, 2, testProxyConfig(proxy.FetchForward), nil)
	ctx := context.Background()
	u := c.url("/doc/shared")

	// First access: origin fetch.
	body0, src, err := c.agents[0].Get(ctx, u)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if src != SourceOrigin {
		t.Fatalf("first access source = %v, want origin", src)
	}
	// Same client again: local browser hit.
	body1, src, err := c.agents[0].Get(ctx, u)
	if err != nil || src != SourceLocal || !bytes.Equal(body0, body1) {
		t.Fatalf("re-access: src=%v err=%v equal=%v", src, err, bytes.Equal(body0, body1))
	}
	// Other client: proxy hit (the proxy cached the origin fetch).
	_, src, err = c.agents[1].Get(ctx, u)
	if err != nil || src != SourceProxy {
		t.Fatalf("cross-client: src=%v err=%v", src, err)
	}
	if c.origin.Fetches() != 1 {
		t.Fatalf("origin fetched %d times, want 1", c.origin.Fetches())
	}
}

// forceProxyEviction fills the proxy cache with filler documents fetched by
// the given agent until earlier entries are evicted.
func forceProxyEviction(t *testing.T, c *cluster, a *Agent, bytesNeeded int64) {
	t.Helper()
	ctx := context.Background()
	var total int64
	for i := 0; total < bytesNeeded; i++ {
		u := c.url("/filler/"+string(rune('a'+i%26))+string(rune('0'+i/26))) + "?size=60000"
		if _, _, err := a.Get(ctx, u); err != nil {
			t.Fatalf("filler fetch: %v", err)
		}
		total += 60000
	}
}

func TestRemoteBrowserHitFetchForward(t *testing.T) {
	c := startCluster(t, 3, testProxyConfig(proxy.FetchForward), func(ac *Config) {
		ac.CacheCapacity = 8 << 20 // browsers retain everything
	})
	ctx := context.Background()
	u := c.url("/doc/popular?size=10000")

	getFlushed(t, c.agents[0], u)
	// Push the document out of the 1 MB proxy cache via another client so
	// agent 0's browser still holds it.
	forceProxyEviction(t, c, c.agents[2], 2<<20)

	_, src, err := c.agents[1].Get(ctx, u)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if src != SourceRemote {
		t.Fatalf("source = %v, want remote", src)
	}
	st := c.proxy.Snapshot()
	if st.RemoteHits != 1 {
		t.Fatalf("proxy remote hits = %d", st.RemoteHits)
	}
	if m := c.agents[0].Snapshot(); m.PeerServes != 1 {
		t.Fatalf("holder peer serves = %d", m.PeerServes)
	}
	// Origin must have served the doc exactly once.
	// (plus the filler fetches, which hit distinct URLs)
	if got, want := c.origin.Fetches(), int64(1+2<<20/60000+1); got != want {
		t.Logf("origin fetches = %d (want %d); filler accounting differs", got, want)
	}
}

func TestRemoteBrowserHitDirectForward(t *testing.T) {
	c := startCluster(t, 3, testProxyConfig(proxy.DirectForward), func(ac *Config) {
		ac.CacheCapacity = 8 << 20
	})
	ctx := context.Background()
	u := c.url("/doc/direct?size=9000")

	want := getFlushed(t, c.agents[0], u)
	forceProxyEviction(t, c, c.agents[2], 2<<20)

	got, src, err := c.agents[1].Get(ctx, u)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if src != SourceRemote {
		t.Fatalf("source = %v, want remote", src)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("direct-forward body corrupted")
	}
	// Direct-forward must not repopulate the proxy cache with the doc:
	// a third fetch by agent 2 is a remote hit again, not a proxy hit.
	_, src, err = c.agents[2].Get(ctx, u)
	if err != nil || src != SourceRemote {
		t.Fatalf("third fetch: src=%v err=%v (direct-forward must bypass proxy cache)", src, err)
	}
}

// TestOnDemandWatermarkVerifiesAtAgents: the proxy signs nothing at
// acquisition; verifying agents (Verify is the default) still accept every
// delivery — from the origin, from the proxy cache, and browser-to-browser
// under direct-forward, where the watermark checked is the one the holder
// stored from its own earlier fetch — and each distinct document costs the
// proxy exactly one signature however many agents ask.
func TestOnDemandWatermarkVerifiesAtAgents(t *testing.T) {
	c := startCluster(t, 3, testProxyConfig(proxy.DirectForward), func(ac *Config) {
		ac.CacheCapacity = 8 << 20
	})
	ctx := context.Background()
	u := c.url("/doc/on-demand?size=9000")

	want, src, err := c.agents[0].Get(ctx, u)
	if err != nil || src != SourceOrigin {
		t.Fatalf("first fetch: src=%v err=%v", src, err)
	}
	if err := c.agents[0].FlushIndex(); err != nil {
		t.Fatal(err)
	}
	if _, src, err = c.agents[1].Get(ctx, u); err != nil || src != SourceProxy {
		t.Fatalf("second agent: src=%v err=%v", src, err)
	}
	if st := c.proxy.Snapshot(); st.WatermarkSigned != 1 || st.WatermarkMemoHits != 1 {
		t.Fatalf("two agents, one document: signed=%d memo_hits=%d, want 1/1", st.WatermarkSigned, st.WatermarkMemoHits)
	}
	forceProxyEviction(t, c, c.agents[2], 2<<20)
	got, src, err := c.agents[2].Get(ctx, u)
	if err != nil || src != SourceRemote || !bytes.Equal(got, want) {
		t.Fatalf("peer delivery: src=%v err=%v equal=%v", src, err, bytes.Equal(got, want))
	}
	for i, a := range c.agents {
		if m := a.Snapshot(); m.TamperSeen != 0 {
			t.Fatalf("agent %d rejected %d watermarks", i, m.TamperSeen)
		}
	}
	if signed, acquired := c.proxy.Snapshot().WatermarkSigned, c.origin.Fetches(); signed != acquired {
		t.Fatalf("signed=%d for %d distinct documents acquired", signed, acquired)
	}
}

func TestWatermarkTamperDetectionFetchForward(t *testing.T) {
	c := startCluster(t, 3, testProxyConfig(proxy.FetchForward), func(ac *Config) {
		ac.CacheCapacity = 8 << 20
	})
	ctx := context.Background()
	u := c.url("/doc/tampered?size=8000")

	want := getFlushed(t, c.agents[0], u)
	// Agent 0 becomes malicious: flips a byte in everything it serves.
	c.agents[0].Tamper = func(_ string, b []byte) []byte {
		bad := append([]byte(nil), b...)
		bad[0] ^= 0xFF
		return bad
	}
	forceProxyEviction(t, c, c.agents[2], 2<<20)

	// The proxy verifies the MD5 digest, rejects the tampered body,
	// prunes the holder, and falls through to the origin.
	got, src, err := c.agents[1].Get(ctx, u)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if src != SourceOrigin {
		t.Fatalf("source = %v, want origin (tampered peer rejected)", src)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("requester received corrupted content")
	}
	st := c.proxy.Snapshot()
	if st.TamperRejected == 0 {
		t.Fatal("proxy did not record the tamper rejection")
	}
	if c.proxy.Index().Has(c.agents[0].ID(), c.proxy.Syms().Intern(u)) {
		t.Fatal("tampering holder still indexed for the doc")
	}
}

func TestWatermarkTamperDetectionDirectForward(t *testing.T) {
	c := startCluster(t, 3, testProxyConfig(proxy.DirectForward), func(ac *Config) {
		ac.CacheCapacity = 8 << 20
	})
	ctx := context.Background()
	u := c.url("/doc/tampered-direct?size=8000")

	want := getFlushed(t, c.agents[0], u)
	c.agents[0].Tamper = func(_ string, b []byte) []byte {
		bad := append([]byte(nil), b...)
		bad[len(bad)-1] ^= 0x55
		return bad
	}
	forceProxyEviction(t, c, c.agents[2], 2<<20)

	// Direct-forward: the requester itself verifies, reports via the
	// ticket, and retries bypassing peers.
	got, src, err := c.agents[1].Get(ctx, u)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if src != SourceOrigin {
		t.Fatalf("retry source = %v, want origin", src)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("requester kept corrupted content")
	}
	if m := c.agents[1].Snapshot(); m.TamperSeen != 1 {
		t.Fatalf("TamperSeen = %d", m.TamperSeen)
	}
	if c.proxy.Index().Has(c.agents[0].ID(), c.proxy.Syms().Intern(u)) {
		t.Fatal("reported holder still indexed")
	}
}

func TestInvalidationRemovesIndexEntry(t *testing.T) {
	c := startCluster(t, 2, testProxyConfig(proxy.FetchForward), nil)
	u := c.url("/doc/evictme?size=4000")
	getFlushed(t, c.agents[0], u)
	if !c.proxy.Index().Has(c.agents[0].ID(), c.proxy.Syms().Intern(u)) {
		t.Fatal("index entry missing after fetch")
	}
	if !c.agents[0].Evict(u) {
		t.Fatal("Evict = false")
	}
	if err := c.agents[0].FlushIndex(); err != nil {
		t.Fatal(err)
	}
	if c.proxy.Index().Has(c.agents[0].ID(), c.proxy.Syms().Intern(u)) {
		t.Fatal("index entry survived invalidation")
	}
}

func TestCapacityEvictionSendsInvalidation(t *testing.T) {
	c := startCluster(t, 1, testProxyConfig(proxy.FetchForward), func(ac *Config) {
		ac.CacheCapacity = 25_000 // fits two 10 KB docs, not three
	})
	u1 := c.url("/doc/a?size=10000")
	for _, u := range []string{u1, c.url("/doc/b?size=10000"), c.url("/doc/c?size=10000")} {
		getFlushed(t, c.agents[0], u)
	}
	if c.agents[0].HasCached(u1) {
		t.Fatal("u1 should have been evicted")
	}
	if c.proxy.Index().Has(c.agents[0].ID(), c.proxy.Syms().Intern(u1)) {
		t.Fatal("index entry for evicted doc not invalidated")
	}
	if c.proxy.Index().Len() != 2 {
		t.Fatalf("index has %d entries, want 2", c.proxy.Index().Len())
	}
}

// TestFullSyncPublishesDirectory: a full sync ships the whole directory as
// one Full sub-batch that supersedes the pending deltas — they are never
// sent on their own afterwards.
func TestFullSyncPublishesDirectory(t *testing.T) {
	c := startCluster(t, 1, testProxyConfig(proxy.FetchForward), func(ac *Config) {
		ac.batchMaxDelay = time.Hour // only the sync ships
	})
	a := c.agents[0]
	urls := []string{c.url("/doc/full1?size=1000"), c.url("/doc/full2?size=1000")}
	for _, u := range urls {
		if _, _, err := a.Get(context.Background(), u); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.syncIndexNow(); err != nil {
		t.Fatal(err)
	}
	for _, u := range urls {
		if !c.proxy.Index().Has(a.ID(), c.proxy.Syms().Intern(u)) {
			t.Fatalf("full sync did not publish %s", u)
		}
	}
	if err := a.FlushIndex(); err != nil {
		t.Fatal(err)
	}
	if m := a.Snapshot(); m.IndexSyncs != 1 || m.IndexBatches != 0 {
		t.Fatalf("syncs=%d batches=%d, want 1/0 (the sync superseded the deltas)", m.IndexSyncs, m.IndexBatches)
	}
}

func TestAnonymityPeerIdentitiesHidden(t *testing.T) {
	// Under both forward modes the holder's peer server only accepts the
	// proxy's token, so a requester cannot contact a holder directly,
	// and the holder sees only proxy-originated requests.
	c := startCluster(t, 2, testProxyConfig(proxy.FetchForward), func(ac *Config) {
		ac.CacheCapacity = 8 << 20
	})
	ctx := context.Background()
	u := c.url("/doc/anon?size=5000")
	if _, _, err := c.agents[0].Get(ctx, u); err != nil {
		t.Fatal(err)
	}
	// Requester (or any outsider) probing the holder's peer endpoint
	// without the token is refused.
	resp, err := c.agents[1].httpClient.Get(c.agents[0].PeerURL() + "/peer/doc?url=" + u)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 403 {
		t.Fatalf("peer served an unauthenticated request: %d", resp.StatusCode)
	}
}

func TestIndexRecoveryAfterProxyAmnesia(t *testing.T) {
	c := startCluster(t, 2, testProxyConfig(proxy.FetchForward), nil)
	for i, a := range c.agents {
		for j := 0; j < 3; j++ {
			getFlushed(t, a, c.url(fmt.Sprintf("/recover/a%dd%d?size=2000", i, j)))
		}
	}
	if c.proxy.Index().Len() != 6 {
		t.Fatalf("index has %d entries before amnesia", c.proxy.Index().Len())
	}
	// Simulate a proxy restart losing the in-memory index.
	for _, a := range c.agents {
		c.proxy.Index().DropClient(a.ID())
	}
	if c.proxy.Index().Len() != 0 {
		t.Fatal("amnesia setup failed")
	}
	// Recovery: the proxy pulls full directories from every browser.
	if acked := c.proxy.ResyncAll(); acked != 2 {
		t.Fatalf("resync acked by %d peers, want 2", acked)
	}
	if c.proxy.Index().Len() != 6 {
		t.Fatalf("index has %d entries after recovery, want 6", c.proxy.Index().Len())
	}
}

func TestAgentConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := DefaultConfig("http://127.0.0.1:1")
	cfg.IndexMode = Batched + 1
	if _, err := New(cfg); err == nil {
		t.Error("unknown IndexMode accepted")
	}
	// Unreachable proxy: registration must fail cleanly.
	cfg = DefaultConfig("http://127.0.0.1:1")
	cfg.Timeout = 200 * 1e6 // 200ms
	if _, err := New(cfg); err == nil {
		t.Error("unreachable proxy accepted")
	}
}

func TestProxyCacheOnlyModeDisablePeer(t *testing.T) {
	pcfg := testProxyConfig(proxy.FetchForward)
	pcfg.DisablePeer = true
	c := startCluster(t, 2, pcfg, func(ac *Config) {
		ac.CacheCapacity = 8 << 20
	})
	ctx := context.Background()
	u := c.url("/doc/nopeer?size=10000")
	if _, _, err := c.agents[0].Get(ctx, u); err != nil {
		t.Fatal(err)
	}
	forceProxyEviction(t, c, c.agents[0], 2<<20)
	_, src, err := c.agents[1].Get(ctx, u)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceOrigin {
		t.Fatalf("peer layer disabled but source = %v", src)
	}
}
