package chaos

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"baps/internal/browser"
)

// scrapeProxyMetrics pulls the proxy's /metrics exposition and parses sample
// lines into name{label} → value.
func scrapeProxyMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("scrape: bad value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestChurnBreakerMetricDeltas is the observability companion to
// TestChurnGracefulDegradation: a 10-agent cluster loses 30% of its peers,
// and the whole failure story — breaker trips, quarantine, origin fallbacks,
// eventual re-admission — must be readable as metric deltas from the proxy's
// registry and its /metrics exposition, without consulting Snapshot.
func TestChurnBreakerMetricDeltas(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos: skipped in -short mode")
	}
	const n = 10
	cfg := churnProxyConfig()
	cfg.BreakerCooldown = 300 * time.Millisecond // allow the revival probe
	c, err := NewChurnCluster(n, cfg, func(ac *browser.Config) {
		ac.HeartbeatInterval = 0
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	reg := c.Proxy.Obs()

	// Seed: every agent holds two documents of its own.
	for i := 0; i < n; i++ {
		for j := 0; j < 2; j++ {
			u := c.DocURL(fmt.Sprintf("/a%d/d%d", i, j), churnDocSize)
			if _, _, err := c.Agents[i].Get(ctx, u); err != nil {
				t.Fatalf("seed agent %d doc %d: %v", i, j, err)
			}
		}
	}
	flushIndexes(t, c.Agents...)

	// Cross-traffic: agent 9 pulls three documents held by live peers, so
	// the peer-serve path is on record before the churn.
	for i := 4; i < 7; i++ {
		u := c.DocURL(fmt.Sprintf("/a%d/d0", i), churnDocSize)
		if _, src, err := c.Agents[9].Get(ctx, u); err != nil || src != browser.SourceRemote {
			t.Fatalf("cross-traffic fetch of a%d/d0: src=%v err=%v", i, src, err)
		}
	}

	openBefore := reg.VecValue("baps_proxy_breaker_transitions_total", "open")
	closedBefore := reg.VecValue("baps_proxy_breaker_transitions_total", "closed")
	falseBefore := reg.CounterValue("baps_proxy_false_peer_total")
	originBefore := reg.VecValue("baps_proxy_fetch_outcomes_total", "origin")

	// Churn: 3 of 10 peers go dark abruptly; one fetch against each trips
	// its breaker and falls back to the origin. Peer 0 only loses its
	// network (the agent survives), so it can revive at the same identity
	// for the re-admission half of the story.
	c.CrashPeer(0)
	c.KillAgent(1)
	c.KillAgent(2)
	for i := 0; i < 3; i++ {
		u := c.DocURL(fmt.Sprintf("/a%d/d0", i), churnDocSize)
		if _, src, err := c.Agents[9].Get(ctx, u); err != nil || src != browser.SourceOrigin {
			t.Fatalf("post-kill fetch of a%d/d0: src=%v err=%v", i, src, err)
		}
	}

	if d := reg.VecValue("baps_proxy_breaker_transitions_total", "open") - openBefore; d < 3 {
		t.Fatalf("breaker open transitions delta = %d, want >= 3 (one per killed peer)", d)
	}
	if d := reg.CounterValue("baps_proxy_false_peer_total") - falseBefore; d < 3 {
		t.Fatalf("false peer delta = %d, want >= 3", d)
	}
	if d := reg.VecValue("baps_proxy_fetch_outcomes_total", "origin") - originBefore; d < 3 {
		t.Fatalf("origin outcome delta = %d, want >= 3", d)
	}

	// The same story must be visible on the wire.
	m := scrapeProxyMetrics(t, c.Proxy.BaseURL())
	if got := m[`baps_proxy_breaker_peers{state="open"}`]; got < 3 {
		t.Fatalf("exposition open-breaker gauge = %g, want >= 3", got)
	}
	if got := m["baps_proxy_index_quarantined_entries"]; got != 3 {
		t.Fatalf("exposition quarantined entries = %g, want 3 (1 remaining doc x 3 dead peers)", got)
	}
	if got := m[`baps_proxy_fetch_outcomes_total{outcome="peer_fetch_forward"}`]; got < 3 {
		t.Fatalf("exposition peer_fetch_forward = %g, want >= 3 (cross-traffic)", got)
	}
	var serves, serveBytes float64
	for k, v := range m {
		if strings.HasPrefix(k, "baps_proxy_peer_serves_total{") {
			serves += v
		}
		if strings.HasPrefix(k, "baps_proxy_peer_serve_bytes_total{") {
			serveBytes += v
		}
	}
	if serves < 3 {
		t.Fatalf("exposition per-peer serves sum = %g, want >= 3", serves)
	}
	if serveBytes < 3*churnDocSize {
		t.Fatalf("exposition per-peer serve bytes sum = %g, want >= %d", serveBytes, 3*churnDocSize)
	}

	// Revive peer 0 at the same identity and wait out the cooldown. Its d1
	// is still held only by it, so a fresh agent's fetch runs the half-open
	// probe and the re-admission must appear as a closed transition.
	c.RevivePeer(0)
	time.Sleep(cfg.BreakerCooldown + 50*time.Millisecond)
	u := c.DocURL("/a0/d1", churnDocSize)
	if _, src, err := fetchViaFreshAgent(t, c, u); err != nil || src != browser.SourceRemote {
		t.Fatalf("post-revival fetch: src=%v err=%v", src, err)
	}
	if d := reg.VecValue("baps_proxy_breaker_transitions_total", "closed") - closedBefore; d < 1 {
		t.Fatalf("breaker closed transitions delta = %d, want >= 1 (re-admission)", d)
	}
}
