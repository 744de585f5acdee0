package browser

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"baps/internal/proxy"
)

// startHost attaches an AgentHost to a running cluster's proxy.
func startHost(t *testing.T, c *cluster, mutate func(*Config)) *AgentHost {
	t.Helper()
	acfg := DefaultConfig(c.proxy.BaseURL())
	acfg.CacheCapacity = 1 << 20
	if mutate != nil {
		mutate(&acfg)
	}
	h, err := NewHost(HostConfig{Agent: acfg})
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

// isClosing reports whether Close/Kill has begun.
func (a *Agent) isClosing() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.closing
}

// TestHostServesManyAgents: hosted agents behind one listener resolve
// documents end to end, and each agent's multiplexed /a/<slot> peer URL is
// registered with the proxy well enough for peer-to-peer resolution: a doc
// cached by one hosted agent is served to a sibling via the peer plane.
func TestHostServesManyAgents(t *testing.T) {
	c := startCluster(t, 0, testProxyConfig(proxy.FetchForward), nil)
	h := startHost(t, c, nil)

	var agents []*Agent
	for i := 0; i < 4; i++ {
		a, err := h.Spawn()
		if err != nil {
			t.Fatalf("Spawn(%d): %v", i, err)
		}
		agents = append(agents, a)
	}
	if h.Live() != 4 {
		t.Fatalf("Live() = %d, want 4", h.Live())
	}

	ctx := context.Background()
	u := c.url("/host/doc")
	if _, src, err := agents[0].Get(ctx, u); err != nil || src != SourceOrigin {
		t.Fatalf("first Get: src=%v err=%v", src, err)
	}
	if err := agents[0].FlushIndex(); err != nil {
		t.Fatal(err)
	}
	// Push the doc out of the proxy's own cache so the sibling's request
	// MUST go through the peer index — proving the hosted agent's
	// multiplexed /a/<slot> callback URL round-trips.
	forceProxyEviction(t, c, agents[3], 2<<20)
	body, src, err := agents[1].Get(ctx, u)
	if err != nil || len(body) == 0 {
		t.Fatalf("sibling Get: %v", err)
	}
	if src != SourceRemote {
		t.Fatalf("sibling resolved via %v, want %v (peer serve through /a/<slot>)", src, SourceRemote)
	}
}

// TestHostBatchedIndexMultiplexed: hosted agents publish through the host's
// single publisher; entries still land in the proxy index under the right
// client identity (peer resolution works agent-to-agent).
func TestHostBatchedIndexMultiplexed(t *testing.T) {
	c := startCluster(t, 0, testProxyConfig(proxy.FetchForward), nil)
	h := startHost(t, c, nil)
	a0, err := h.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	a1, err := h.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	filler, err := h.Spawn()
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	u := c.url("/hostbatch/doc")
	if _, _, err := a0.Get(ctx, u); err != nil {
		t.Fatal(err)
	}
	// Blocking full sync through the host's publisher: a0's directory is in
	// the proxy index when this returns.
	a0.syncIndexNow()
	// Evict the doc from the proxy cache so resolution must use the index.
	forceProxyEviction(t, c, filler, 2<<20)

	_, src, err := a1.Get(ctx, u)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceRemote {
		t.Fatalf("sibling resolved via %v, want %v (batched index entry under a0's identity)", src, SourceRemote)
	}
}

// TestHostAgentCrashDoesNotStallSiblings: killing one hosted agent abruptly
// must leave its siblings fully live — same listener, same transport, same
// publisher — and its own route answering 410 Gone.
func TestHostAgentCrashDoesNotStallSiblings(t *testing.T) {
	c := startCluster(t, 0, testProxyConfig(proxy.FetchForward), nil)
	h := startHost(t, c, nil)

	var agents []*Agent
	for i := 0; i < 8; i++ {
		a, err := h.Spawn()
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
	}
	victim := agents[3]
	victimURL := victim.PeerURL()
	victim.Kill()
	if h.Live() != 7 {
		t.Fatalf("Live() = %d after kill, want 7", h.Live())
	}

	ctx := context.Background()
	for i, a := range agents {
		if i == 3 {
			continue
		}
		u := c.url(fmt.Sprintf("/sibling/doc%d", i))
		if _, _, err := a.Get(ctx, u); err != nil {
			t.Fatalf("sibling %d stalled after crash: %v", i, err)
		}
	}
	resp, err := http.Get(victimURL + "/peer/doc?url=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("dead slot status %d, want 410", resp.StatusCode)
	}
}

// TestHostSlotReuseReAdvertisesURL: a replacement spawned after a kill takes
// the freed slot, so it re-advertises the same /a/<slot> URL and the proxy's
// register-supersede path retires the dead registration instead of leaking
// peers. The arena cell itself must NOT be reused (stale handles stay safe).
func TestHostSlotReuseReAdvertisesURL(t *testing.T) {
	c := startCluster(t, 0, proxy.Config{}, nil)
	h := startHost(t, c, nil)

	old, err := h.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	oldURL := old.PeerURL()
	old.Kill()

	repl, err := h.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	if repl.PeerURL() != oldURL {
		t.Fatalf("replacement advertises %s, want reused %s", repl.PeerURL(), oldURL)
	}
	if repl == old {
		t.Fatal("arena cell reused: stale agent handle now aliases the replacement")
	}
	if repl.isClosing() || !old.isClosing() {
		t.Fatal("kill/spawn state confusion")
	}
}

// TestHostLifecycleConcurrent is the -race exercise: spawns, closed-loop
// Gets, invalidation posts, individual kills, and the final host Close all
// overlap. Nothing may deadlock, panic, or corrupt sibling state.
func TestHostLifecycleConcurrent(t *testing.T) {
	c := startCluster(t, 0, testProxyConfig(proxy.FetchForward), nil)
	h := startHost(t, c, func(cfg *Config) {
		cfg.batchMaxDelay = 10 * time.Millisecond // many flushes inside the churn window
	})

	const n = 24
	var (
		mu     sync.Mutex
		agents []*Agent
	)
	pick := func(i int) *Agent {
		mu.Lock()
		defer mu.Unlock()
		if len(agents) == 0 {
			return nil
		}
		return agents[i%len(agents)]
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var gets, kills atomic.Int64

	// Spawners.
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				a, err := h.Spawn()
				if err != nil {
					t.Errorf("Spawn: %v", err)
					return
				}
				mu.Lock()
				agents = append(agents, a)
				mu.Unlock()
			}
		}()
	}
	// Drivers: closed-loop Gets against whatever is live.
	ctx := context.Background()
	for d := 0; d < 4; d++ {
		d := d
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a := pick(d*31 + i)
				if a == nil || a.isClosing() {
					continue
				}
				u := c.url(fmt.Sprintf("/conc/doc%d", i%50))
				if _, _, err := a.Get(ctx, u); err == nil {
					gets.Add(1)
				}
			}
		}()
	}
	// Killer: churns agents while the drivers run, until it has made six
	// kills.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; kills.Load() < 6; i++ {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			a := pick(i * 7)
			if a == nil {
				continue
			}
			a.Kill()
			kills.Add(1)
			if repl, err := h.Spawn(); err == nil {
				mu.Lock()
				agents = append(agents, repl)
				mu.Unlock()
			}
		}
	}()

	// Run for at least 300 ms, and on until the six kills and a first Get
	// are done: both wait on registrations, and under -race on a loaded box
	// those can take longer than any fixed sleep.
	time.Sleep(300 * time.Millisecond)
	for deadline := time.Now().Add(30 * time.Second); (kills.Load() < 6 || gets.Load() == 0) && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if gets.Load() == 0 {
		t.Fatal("no Gets completed under concurrency")
	}
	if kills.Load() == 0 {
		t.Fatal("killer never ran")
	}
	// Close with live agents still registered: must drain without hanging.
	done := make(chan error, 1)
	go func() { done <- h.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("host Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("host Close hung")
	}
	if h.Live() != 0 {
		t.Fatalf("Live() = %d after Close, want 0", h.Live())
	}
	// Everything afterwards is inert, not panicky.
	if _, err := h.Spawn(); err == nil {
		t.Fatal("Spawn after Close should fail")
	}
}

// TestHostCloseIdempotentWithAgentClose: an individual hosted agent's Close
// racing the host's Close must not double-free or deadlock.
func TestHostCloseIdempotentWithAgentClose(t *testing.T) {
	c := startCluster(t, 0, proxy.Config{}, nil)
	h := startHost(t, c, nil)
	var agents []*Agent
	for i := 0; i < 6; i++ {
		a, err := h.Spawn()
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
	}
	var wg sync.WaitGroup
	for _, a := range agents[:3] {
		a := a
		wg.Add(1)
		go func() { defer wg.Done(); a.Close() }()
	}
	wg.Add(1)
	go func() { defer wg.Done(); h.Close() }()
	wg.Wait()
	for _, a := range agents {
		a.Close() // second Close on every agent: must be a no-op
	}
	if h.Live() != 0 {
		t.Fatalf("Live() = %d, want 0", h.Live())
	}
}

// TestHostedAgentServesMetrics: each agent of a shared host answers its own
// /a/<slot>/metrics with its own counters.
func TestHostedAgentServesMetrics(t *testing.T) {
	c := startCluster(t, 0, testProxyConfig(proxy.FetchForward), nil)
	h := startHost(t, c, nil)
	var agents []*Agent
	for i := 0; i < 3; i++ {
		a, err := h.Spawn()
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
	}
	ctx := context.Background()
	for i, a := range agents {
		for j := 0; j < i; j++ {
			if _, _, err := a.Get(ctx, c.url(fmt.Sprintf("/metrics/%d", j))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, a := range agents {
		if got, want := scrapeMetrics(t, a)["baps_browser_requests_total"], strconv.Itoa(i); got != want {
			t.Errorf("agent %d: baps_browser_requests_total = %q, want %s", i, got, want)
		}
	}
}

// TestBeatSetCoversEachAgentOncePerInterval: at a 5 s interval and a 1 s
// tick, the pacer's beats over one interval equal the live count ±1 on a
// host of 1, 3 or 128 agents, and carry no drift over ten intervals.
func TestBeatSetCoversEachAgentOncePerInterval(t *testing.T) {
	const tick, interval, ticks = time.Second, 5 * time.Second, 5
	for _, live := range []int{1, 3, 128} {
		h := &AgentHost{live: live, slots: make([]*Agent, live)}
		for i := range h.slots {
			h.slots[i] = &Agent{slot: i}
		}
		beats := func(n int) int {
			total := 0
			for range n {
				total += len(h.beatSet(tick, interval))
			}
			return total
		}
		if got := beats(ticks); got < live-1 || got > live+1 {
			t.Errorf("%d live: %d beats in one interval, want %d±1", live, got, live)
		}
		if got := beats(10 * ticks); got < 10*live-1 || got > 10*live+1 {
			t.Errorf("%d live: %d beats in ten intervals, want %d±1", live, got, 10*live)
		}
	}
}
