package chaos

import (
	"context"
	"fmt"
	"testing"

	"baps/internal/browser"
)

// hostedMutate configures hosted agents for deterministic churn tests.
func hostedMutate(ac *browser.Config) {
	ac.HeartbeatInterval = 0
}

// TestHostChurnKillsAgentsAndWholeHosts exercises the two failure
// granularities the lean agent plane introduces: an individual hosted agent
// dying inside a healthy host, and an entire host — listener, shared
// transport, multiplexed publisher, every resident agent — vanishing at
// once. In both cases the surviving fleet must keep answering, the proxy's
// breakers must absorb the dead registrations, and a replacement spawned
// into a freed slot must re-advertise the dead agent's URL and serve again.
func TestHostChurnKillsAgentsAndWholeHosts(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos: skipped in -short mode")
	}
	c, err := NewChurnCluster(1, churnProxyConfig(), func(ac *browser.Config) {
		ac.HeartbeatInterval = 0
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	witness := c.Agents[0]
	ctx := context.Background()

	h0, err := c.AddHost(4, hostedMutate)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := c.AddHost(3, hostedMutate)
	if err != nil {
		t.Fatal(err)
	}

	// Seed: every hosted agent owns two documents (cached + indexed). The
	// proxy cache is below the doc size, so later requests MUST resolve
	// through the peer plane or fall back to the origin.
	docURL := func(h, i, j int) string {
		return c.DocURL(fmt.Sprintf("/h%d/a%d/d%d", h, i, j), churnDocSize)
	}
	for h, agents := range c.Hosted {
		for i, a := range agents {
			for j := 0; j < 2; j++ {
				if _, _, err := a.Get(ctx, docURL(h, i, j)); err != nil {
					t.Fatalf("seed host %d agent %d: %v", h, i, err)
				}
			}
		}
		flushIndexes(t, agents...)
	}

	// Sanity: the multiplexed /a/<slot> URLs serve peers — a doc owned by a
	// hosted agent reaches the witness as a remote hit.
	if _, src, err := witness.Get(ctx, docURL(0, 0, 0)); err != nil || src != browser.SourceRemote {
		t.Fatalf("hosted peer serve: src=%v err=%v", src, err)
	}

	// -- Individual hosted agent dies inside a live host ------------------
	victimURL := c.Hosted[h0][1].PeerURL()
	c.KillHostedAgent(h0, 1)
	if _, _, err := witness.Get(ctx, docURL(0, 1, 0)); err != nil {
		t.Fatalf("request for dead hosted agent's doc must fall back: %v", err)
	}
	st := c.Proxy.Snapshot()
	if st.BreakerTrips < 1 {
		t.Fatalf("breaker trips = %d after hosted agent kill, want >= 1", st.BreakerTrips)
	}
	// Siblings on the same host are untouched.
	if _, src, err := witness.Get(ctx, docURL(0, 2, 0)); err != nil || src != browser.SourceRemote {
		t.Fatalf("sibling of killed hosted agent: src=%v err=%v", src, err)
	}

	// -- A whole host dies -------------------------------------------------
	c.KillHost(h1)
	for i := 0; i < 3; i++ {
		if _, _, err := witness.Get(ctx, docURL(1, i, 1)); err != nil {
			t.Fatalf("request for dead host's doc %d must fall back: %v", i, err)
		}
	}
	st = c.Proxy.Snapshot()
	if st.BreakerTrips < 2 {
		t.Fatalf("breaker trips = %d after host kill, want >= 2", st.BreakerTrips)
	}
	// The other host keeps serving.
	if _, src, err := witness.Get(ctx, docURL(0, 3, 0)); err != nil || src != browser.SourceRemote {
		t.Fatalf("surviving host after sibling host died: src=%v err=%v", src, err)
	}

	// -- Replacement reuses the freed slot ---------------------------------
	repl, err := c.SpawnHostedAgent(h0)
	if err != nil {
		t.Fatal(err)
	}
	if repl.PeerURL() != victimURL {
		t.Fatalf("replacement advertises %s, want the dead agent's %s (slot reuse → register-supersede)",
			repl.PeerURL(), victimURL)
	}
	u := c.DocURL("/repl/doc", churnDocSize)
	if _, _, err := repl.Get(ctx, u); err != nil {
		t.Fatalf("replacement Get: %v", err)
	}
	flushIndexes(t, repl)
	if _, src, err := witness.Get(ctx, u); err != nil || src != browser.SourceRemote {
		t.Fatalf("replacement not serving at reused URL: src=%v err=%v", src, err)
	}
}
