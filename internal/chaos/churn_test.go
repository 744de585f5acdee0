package chaos

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"baps/internal/browser"
	"baps/internal/proxy"
)

// churnProxyConfig tunes the resilience machinery for fast live tests:
// one failure trips a breaker, the peer soft deadline is short so hedges
// fire quickly, and the proxy cache is too small to admit any test document
// (forcing the peer path on every request).
func churnProxyConfig() proxy.Config {
	cfg := proxy.DefaultConfig()
	cfg.KeyBits = 1024
	cfg.CacheCapacity = 2048 // below every test doc size: always peer/origin
	cfg.Forward = proxy.FetchForward
	cfg.PeerTimeout = 2 * time.Second
	cfg.PeerSoftDeadline = 250 * time.Millisecond
	cfg.BreakerThreshold = 1
	cfg.BreakerCooldown = 5 * time.Second // no half-open probes mid-test
	cfg.HeartbeatTimeout = 0              // sweeps covered by their own test
	cfg.OriginRetries = 1
	return cfg
}

const churnDocSize = 8000

// flushIndexes ships every agent's pending index deltas, so the proxy's
// browser index reflects what the agents have cached so far.
func flushIndexes(t *testing.T, agents ...*browser.Agent) {
	t.Helper()
	for _, a := range agents {
		if err := a.FlushIndex(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChurnGracefulDegradation is the headline chaos test: a 10-agent
// cluster loses 30% of its peers abruptly (plus one stalled peer) in the
// middle of a workload, and every surviving request must still complete —
// within the soft deadline budget, never a full PeerTimeout — while the
// breaker quarantines each dead peer's entries in one step.
func TestChurnGracefulDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos: skipped in -short mode")
	}
	const n = 10
	c, err := NewChurnCluster(n, churnProxyConfig(), func(ac *browser.Config) {
		ac.HeartbeatInterval = 0 // deterministic: no background beacons
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// Seed: every agent caches (and indexes) three documents of its own.
	docs := make([]string, 0, 3*n)
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			u := c.DocURL(fmt.Sprintf("/a%d/d%d", i, j), churnDocSize)
			if _, _, err := c.Agents[i].Get(ctx, u); err != nil {
				t.Fatalf("seed agent %d doc %d: %v", i, j, err)
			}
			docs = append(docs, u)
		}
	}
	flushIndexes(t, c.Agents...)

	// Churn: 3 of 10 agents die abruptly, one more stalls every request.
	for i := 0; i < 3; i++ {
		c.KillAgent(i)
	}
	c.StallPeer(3, 0) // hangs until the caller's deadline

	// One request against each dead peer trips its breaker; the peer's
	// remaining entries must be quarantined in that single step, not one
	// failed fetch at a time.
	for i := 0; i < 3; i++ {
		u := c.DocURL(fmt.Sprintf("/a%d/d0", i), churnDocSize)
		if _, _, err := c.Agents[9].Get(ctx, u); err != nil {
			t.Fatalf("post-kill fetch of a%d/d0: %v", i, err)
		}
	}
	st := c.Proxy.Snapshot()
	if st.BreakerTrips < 3 {
		t.Fatalf("breaker trips = %d, want >= 3 (one per killed peer): %+v", st.BreakerTrips, st)
	}
	if st.QuarantinedEntries != 6 {
		t.Fatalf("quarantined entries = %d, want 6 (2 remaining docs x 3 dead peers)", st.QuarantinedEntries)
	}
	if st.BreakerOpen < 3 {
		t.Fatalf("open breakers = %d, want >= 3", st.BreakerOpen)
	}

	// Workload: every survivor walks the full document set concurrently.
	// The budget per request is PeerSoftDeadline + origin time + slack —
	// far below PeerTimeout, proving no request waits out a dead or
	// stalled peer.
	const budget = 1500 * time.Millisecond
	var wg sync.WaitGroup
	errCh := make(chan error, (n-4)*len(docs))
	var maxMu sync.Mutex
	var maxElapsed time.Duration
	for i := 4; i < n; i++ {
		wg.Add(1)
		go func(agent *browser.Agent, id int) {
			defer wg.Done()
			for _, u := range docs {
				start := time.Now()
				if _, _, err := agent.Get(ctx, u); err != nil {
					errCh <- fmt.Errorf("agent %d get %s: %w", id, u, err)
					return
				}
				elapsed := time.Since(start)
				maxMu.Lock()
				if elapsed > maxElapsed {
					maxElapsed = elapsed
				}
				maxMu.Unlock()
			}
		}(c.Agents[i], i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if maxElapsed > budget {
		t.Fatalf("slowest request took %v, budget %v (PeerTimeout %v must never be awaited)",
			maxElapsed, budget, 2*time.Second)
	}
	t.Logf("churn workload: slowest request %v; stats %+v", maxElapsed, c.Proxy.Snapshot())
}

// TestHalfOpenProbeReadmitsRevivedPeer: a crashed peer that comes back at
// the same identity is re-admitted by a single successful half-open probe,
// restoring all its quarantined entries in one step.
func TestHalfOpenProbeReadmitsRevivedPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos: skipped in -short mode")
	}
	cfg := churnProxyConfig()
	cfg.BreakerCooldown = 150 * time.Millisecond
	c, err := NewChurnCluster(2, cfg, func(ac *browser.Config) {
		ac.HeartbeatInterval = 0
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	ux := c.DocURL("/hold/x", churnDocSize)
	uy := c.DocURL("/hold/y", churnDocSize)
	uz := c.DocURL("/hold/z", churnDocSize)
	for _, u := range []string{ux, uy, uz} {
		if _, _, err := c.Agents[0].Get(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	flushIndexes(t, c.Agents[0])

	c.CrashPeer(0)
	// Trips on the first failure; entry x is pruned, y and z are
	// quarantined together.
	if _, src, err := c.Agents[1].Get(ctx, ux); err != nil || src != browser.SourceOrigin {
		t.Fatalf("fetch against crashed peer: src=%v err=%v", src, err)
	}
	st := c.Proxy.Snapshot()
	if st.BreakerTrips != 1 || st.QuarantinedEntries != 2 {
		t.Fatalf("after crash: trips=%d quarantined=%d, want 1/2", st.BreakerTrips, st.QuarantinedEntries)
	}

	// While the breaker is open (cooldown not yet elapsed) the quarantined
	// entries are invisible: the fetch goes straight to the origin, fast.
	start := time.Now()
	if _, src, err := c.Agents[1].Get(ctx, uy); err != nil || src != browser.SourceOrigin {
		t.Fatalf("open-breaker fetch: src=%v err=%v", src, err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("open-breaker fetch took %v — the dead peer was contacted", elapsed)
	}

	// Revive at the same identity and wait out the cooldown. z is still
	// held only by the revived peer (agent 1 picked up y on its origin
	// fallback, but never z), so a fresh agent's fetch of z must run the
	// half-open probe against the quarantined holder and re-admit it.
	c.RevivePeer(0)
	time.Sleep(cfg.BreakerCooldown + 50*time.Millisecond)
	body, src, err := fetchViaFreshAgent(t, c, uz)
	if err != nil {
		t.Fatalf("post-revival fetch: %v", err)
	}
	if src != browser.SourceRemote {
		t.Fatalf("post-revival source = %v, want remote (probe re-admission)", src)
	}
	if len(body) != churnDocSize {
		t.Fatalf("post-revival body size = %d", len(body))
	}
	st = c.Proxy.Snapshot()
	if st.BreakerReadmits != 1 {
		t.Fatalf("readmits = %d, want 1: %+v", st.BreakerReadmits, st)
	}
	if st.QuarantinedEntries != 0 {
		t.Fatalf("quarantined entries = %d after re-admission, want 0", st.QuarantinedEntries)
	}
}

// fetchViaFreshAgent runs one Get through a brand-new agent (empty local
// cache) and tears it down again.
func fetchViaFreshAgent(t *testing.T, c *ChurnCluster, u string) ([]byte, browser.Source, error) {
	t.Helper()
	acfg := browser.DefaultConfig(c.Proxy.BaseURL())
	acfg.HeartbeatInterval = 0
	a, err := browser.New(acfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	return a.Get(context.Background(), u)
}

// TestHeartbeatSilenceQuarantinesSilentPeer: an abruptly killed agent stops
// heartbeating; the proxy's silence sweep trips its breaker and quarantines
// its entries without waiting for a fetch against it to fail. The surviving
// agent keeps beating and stays closed.
func TestHeartbeatSilenceQuarantinesSilentPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos: skipped in -short mode")
	}
	cfg := churnProxyConfig()
	cfg.HeartbeatTimeout = 250 * time.Millisecond
	c, err := NewChurnCluster(2, cfg, func(ac *browser.Config) {
		ac.HeartbeatInterval = 50 * time.Millisecond
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	u1 := c.DocURL("/hb/1", churnDocSize)
	u2 := c.DocURL("/hb/2", churnDocSize)
	for _, u := range []string{u1, u2} {
		if _, _, err := c.Agents[0].Get(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	flushIndexes(t, c.Agents[0])

	c.KillAgent(0) // heartbeats stop; no unregister
	deadline := time.Now().Add(3 * time.Second)
	for {
		st := c.Proxy.Snapshot()
		if st.HeartbeatMisses >= 1 && st.QuarantinedEntries == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("silence sweep never quarantined the dead peer: %+v", st)
		}
		time.Sleep(25 * time.Millisecond)
	}
	st := c.Proxy.Snapshot()
	if st.BreakerOpen < 1 {
		t.Fatalf("dead peer's breaker not open: %+v", st)
	}
	if st.Heartbeats == 0 {
		t.Fatalf("surviving agent's heartbeats not recorded: %+v", st)
	}
	if st.BreakerClosed < 1 {
		t.Fatalf("surviving agent should stay closed: %+v", st)
	}

	// A fetch for the dead peer's document never touches it: the breaker
	// is already open, so the proxy goes straight to the origin.
	start := time.Now()
	if _, src, err := c.Agents[1].Get(ctx, u1); err != nil || src != browser.SourceOrigin {
		t.Fatalf("post-sweep fetch: src=%v err=%v", src, err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("post-sweep fetch took %v — dead peer was contacted", elapsed)
	}
}

// TestGracefulCloseUnregisters: Close departs cleanly — the proxy drops the
// agent's registration and index entries immediately.
func TestGracefulCloseUnregisters(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos: skipped in -short mode")
	}
	c, err := NewChurnCluster(2, churnProxyConfig(), func(ac *browser.Config) {
		ac.HeartbeatInterval = 0
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	u := c.DocURL("/bye/doc", churnDocSize)
	if _, _, err := c.Agents[0].Get(ctx, u); err != nil {
		t.Fatal(err)
	}
	flushIndexes(t, c.Agents[0])
	if got := c.Proxy.Index().Len(); got != 1 {
		t.Fatalf("index len before close = %d", got)
	}
	if err := c.Agents[0].Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := c.Proxy.Snapshot()
	if st.Unregisters != 1 {
		t.Fatalf("unregisters = %d, want 1", st.Unregisters)
	}
	if st.IndexEntries != 0 {
		t.Fatalf("index entries after unregister = %d, want 0", st.IndexEntries)
	}
	if st.Clients != 1 {
		t.Fatalf("clients after unregister = %d, want 1", st.Clients)
	}
	// The departed peer is never consulted: the next fetch goes origin.
	if _, src, err := c.Agents[1].Get(ctx, u); err != nil || src != browser.SourceOrigin {
		t.Fatalf("post-unregister fetch: src=%v err=%v", src, err)
	}
}

// TestCorruptPeerDetectedAndBypassed: a holder serving corrupted bodies is
// caught by the proxy's digest check; the requester still gets the
// authentic document from the origin.
func TestCorruptPeerDetectedAndBypassed(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos: skipped in -short mode")
	}
	c, err := NewChurnCluster(2, churnProxyConfig(), func(ac *browser.Config) {
		ac.HeartbeatInterval = 0
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	u := c.DocURL("/evil/doc", churnDocSize)
	authentic, _, err := c.Agents[0].Get(ctx, u)
	if err != nil {
		t.Fatal(err)
	}
	flushIndexes(t, c.Agents[0])
	c.CorruptPeer(0)
	body, _, err := c.Agents[1].Get(ctx, u)
	if err != nil {
		t.Fatalf("fetch past corrupting peer: %v", err)
	}
	if !bytes.Equal(body, authentic) {
		t.Fatal("corrupted body reached the requester")
	}
	st := c.Proxy.Snapshot()
	if st.TamperRejected < 1 {
		t.Fatalf("tamper not recorded: %+v", st)
	}
}
