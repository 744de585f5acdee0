package chaos

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"testing"
	"time"

	"baps/internal/browser"
	"baps/internal/proxy"
)

// restartProxyConfig shapes a proxy whose memory tier holds only a handful
// of documents, so the bulk of the working set lives (journaled) on disk —
// the configuration under which a SIGKILL has something real to lose.
func restartProxyConfig(dir string) proxy.Config {
	cfg := proxy.DefaultConfig()
	cfg.KeyBits = 1024
	cfg.CacheCapacity = 2 << 20
	cfg.MemFraction = 0.03 // ~7 docs of 8 KB in memory, the rest on disk
	cfg.DataDir = dir
	cfg.HeartbeatTimeout = 0
	cfg.PeerTimeout = 2 * time.Second
	cfg.PeerSoftDeadline = 250 * time.Millisecond
	return cfg
}

// proxyFetch resolves u through the proxy's /fetch over plain HTTP (no
// browser cache in the way), so the proxy-side hit ratio is what's measured.
func proxyFetch(t *testing.T, base, u string) {
	t.Helper()
	resp, err := http.Get(base + "/fetch?url=" + url.QueryEscape(u))
	if err != nil {
		t.Fatalf("fetch %s: %v", u, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch %s: status %d", u, resp.StatusCode)
	}
}

// TestProxyKillRestartUnderChurn is the crash-recovery headline: a 10-agent
// cluster loses 30% of its peers, then the proxy itself is SIGKILLed
// mid-workload (no flush, no goodbye) and restarted on the same address.
// The restarted proxy must warm-start from its disk journal: hit ratio over
// the recovery window >= 90% of the steady-state window, origin traffic
// <= 2x the steady-state window (no thundering herd), client registrations
// and counters re-seated, and surviving agents never re-register.
func TestProxyKillRestartUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos: skipped in -short mode")
	}
	const n = 10
	dir := t.TempDir()
	c, err := NewChurnCluster(n, restartProxyConfig(dir), func(ac *browser.Config) {
		ac.HeartbeatInterval = 0
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	base := c.Proxy.BaseURL()

	docs := make([]string, 50)
	for i := range docs {
		docs[i] = c.DocURL(fmt.Sprintf("/doc%02d", i), 8000)
	}
	// window drives one measurement pass: every working-set document twice
	// (back-to-back access admits it past the spill filter) plus `fresh`
	// never-seen one-offs, so the steady state keeps a nonzero origin rate
	// to compare the recovery window against.
	window := func(tag string) {
		for _, u := range docs {
			proxyFetch(t, base, u)
			proxyFetch(t, base, u)
		}
		for i := 0; i < 10; i++ {
			proxyFetch(t, base, c.DocURL(fmt.Sprintf("/%s-one-off%d", tag, i), 8000))
		}
	}

	window("cold") // populate: misses + admissions, demotions spill to disk

	// Steady-state measurement window.
	pre := c.Proxy.Snapshot()
	window("steady")
	mid := c.Proxy.Snapshot()
	steadyReqs := mid.Requests - pre.Requests
	steadyHits := mid.ProxyHits - pre.ProxyHits
	steadyOrigin := mid.OriginFetches - pre.OriginFetches
	steadyRatio := float64(steadyHits) / float64(steadyReqs)
	if steadyRatio < 0.8 {
		t.Fatalf("steady-state hit ratio %.2f too low for the test to mean anything", steadyRatio)
	}

	// 30% churn: three peers die abruptly. The proxy only learns through
	// failed contact; their registrations are still in the persisted state.
	for i := 0; i < 3; i++ {
		c.KillAgent(i)
	}
	// Let the interval fsync and the state-save loop (every 2 s) land after
	// the steady window, then SIGKILL.
	time.Sleep(2500 * time.Millisecond)
	if err := c.RestartProxy(false); err != nil {
		t.Fatal(err)
	}
	base = c.Proxy.BaseURL()

	st := c.Proxy.Snapshot()
	if st.RestoredDocs < 40 {
		t.Fatalf("restored_docs=%d, want >=40 of the 50-doc working set", st.RestoredDocs)
	}
	if st.Clients != n {
		t.Fatalf("restored clients=%d, want %d", st.Clients, n)
	}
	if st.Requests < steadyReqs {
		t.Fatalf("restored request counter %d lost the pre-kill history (>=%d expected)", st.Requests, steadyReqs)
	}

	// Recovery measurement window, same shape as the steady one.
	pre = c.Proxy.Snapshot()
	window("recovery")
	post := c.Proxy.Snapshot()
	recReqs := post.Requests - pre.Requests
	recHits := post.ProxyHits - pre.ProxyHits
	recOrigin := post.OriginFetches - pre.OriginFetches
	recRatio := float64(recHits) / float64(recReqs)
	t.Logf("steady: ratio=%.3f origin=%d | recovery: ratio=%.3f origin=%d | restored=%d disk_hits=%d",
		steadyRatio, steadyOrigin, recRatio, recOrigin, st.RestoredDocs, post.DiskHits)
	if recRatio < 0.9*steadyRatio {
		t.Fatalf("recovery hit ratio %.3f < 90%% of steady %.3f", recRatio, steadyRatio)
	}
	if recOrigin > 2*steadyOrigin {
		t.Fatalf("recovery origin fetches %d > 2x steady %d (thundering herd)", recOrigin, steadyOrigin)
	}
	if post.DiskHits == 0 {
		t.Fatal("recovery window never touched the disk tier")
	}
	if post.RestartToWarmSec <= 0 {
		t.Fatal("restart_to_warm_sec still zero after the recovery window")
	}

	// A surviving agent keeps working against the restarted proxy without
	// re-registering: its restored token authenticates, and the startup
	// resync re-learns directories from live peers.
	if _, _, err := c.Agents[9].Get(ctx, c.DocURL("/post-restart", 8000)); err != nil {
		t.Fatalf("surviving agent against restarted proxy: %v", err)
	}
}
