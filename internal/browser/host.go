package browser

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"baps/internal/integrity"
	"baps/internal/proxy"
)

// hostChunk is the arena granularity: agents are placed into fixed-size
// chunks so growing the fleet never moves a live Agent (drivers hold *Agent
// across Spawn calls) and the allocator is a bump pointer, not 50k separate
// heap objects for the GC to trace.
const hostChunk = 256

// HostConfig parameterizes an AgentHost.
type HostConfig struct {
	// Agent is the template config every hosted agent starts from. Its
	// HeartbeatInterval drives the host's shared heartbeat pacer (one
	// goroutine beats the whole fleet); an empty AdvertisePeerURL has each
	// agent register its /a/<slot> callback URL on the host; its Logger
	// also takes the host's own logs.
	Agent Config
	// Addr is the listen address; empty means a loopback ephemeral port.
	Addr string
}

// AgentHost serves N hosted agents behind ONE http.Server, ONE listener, and
// ONE tuned transport to the proxy, with all index traffic multiplexed onto
// a single publisher goroutine. A hosted agent costs a
// struct in a host-owned arena — no per-agent goroutines, sockets, or conn
// pools — which is what lets one box carry tens of thousands of live agents.
//
// On the wire nothing changes for the proxy: each agent registers its own
// /a/<slot>-prefixed callback URL, holds its own token, and keeps its own
// index generation counter, so fetch-forward, direct-forward and
// invalidations all work against hosted agents unmodified.
type AgentHost struct {
	cfg     HostConfig
	client  *http.Client
	ln      net.Listener
	srv     *http.Server
	baseURL string
	pub     *publisher

	mu sync.RWMutex
	// verifier is shared by every agent registered under the proxy key
	// whose PEM is verifierPEM; a registration that returns another key (a
	// proxy restarted without its data directory) replaces both, so a
	// verification memo is never consulted under a key it was not built
	// for.
	verifier    *integrity.Verifier
	verifierPEM string
	// bodies holds one copy of each body the hosted agents cache.
	bodies *bodyStore
	// slots maps the routed <slot> id to the live agent occupying it; nil
	// when vacant. Slot ids are recycled through free so a churn-replaced
	// agent re-advertises the SAME URL and the proxy's register-supersede
	// path retires the predecessor instead of leaking a peer record.
	slots []*Agent
	free  []int
	// chunks is the agent arena. Cells are never reused: a driver may hold
	// a *Agent long after the agent died, and a recycled cell would turn
	// that stale pointer into a live-but-wrong agent. Dead cells cost a
	// bare struct (releaseMemory drops their maps and cache).
	chunks [][]Agent
	fill   int // occupancy of the last chunk
	live   int
	closed bool
	// cursor round-robins the heartbeat pacer across slots; owed carries
	// the fraction of a beat (live × tick, in units of the interval) the
	// pacer still owes from earlier ticks.
	cursor int
	owed   int64
	// beating is the agent whose heartbeat is in flight (nil between
	// beats); beatDone, over mu, is broadcast when it completes, so remove
	// can wait for a departing agent's last beat without a per-agent field.
	beating  *Agent
	beatDone sync.Cond
	// solo marks the host New starts for one agent, which Close and Kill
	// take down with it.
	solo bool

	stopHB chan struct{}
	hbDone chan struct{}
}

// NewHost starts the shared peer server and publisher; agents are added with
// Spawn.
func NewHost(cfg HostConfig) (*AgentHost, error) {
	agentCfg, err := normalizeConfig(cfg.Agent)
	if err != nil {
		return nil, err
	}
	cfg.Agent = agentCfg
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("browser: host listen: %w", err)
	}
	h := &AgentHost{
		cfg:     cfg,
		bodies:  newBodyStore(),
		ln:      ln,
		baseURL: "http://" + ln.Addr().String(),
		// All hosted agents share one pool toward the one proxy host, so
		// it is sized like the proxy's origin pool, not a single agent's.
		client: &http.Client{
			Timeout:   agentCfg.Timeout,
			Transport: proxy.NewTransport(proxy.OriginIdleConnsPerHost),
		},
	}
	h.beatDone.L = &h.mu
	h.srv = &http.Server{Handler: http.HandlerFunc(h.route)}
	go h.srv.Serve(ln)
	h.pub = newPublisher(agentCfg.ProxyURL, h.client, agentCfg.Logger, agentCfg.batchMaxDelay)
	if iv := agentCfg.HeartbeatInterval; iv > 0 {
		h.stopHB = make(chan struct{})
		h.hbDone = make(chan struct{})
		go h.heartbeatLoop(iv)
	}
	return h, nil
}

// BaseURL reports the host's shared peer-server base URL.
func (h *AgentHost) BaseURL() string { return h.baseURL }

// Live reports the number of live hosted agents.
func (h *AgentHost) Live() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.live
}

// Agents snapshots the live hosted agents.
func (h *AgentHost) Agents() []*Agent {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]*Agent, 0, h.live)
	for _, a := range h.slots {
		if a != nil {
			out = append(out, a)
		}
	}
	return out
}

// Spawn creates one hosted agent: a slot is assigned, the agent registers
// with the proxy advertising its /a/<slot> callback URL (or the configured
// AdvertisePeerURL), and its index publishing is attached to the host's
// publisher.
func (h *AgentHost) Spawn() (*Agent, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, errors.New("browser: host closed")
	}
	var slot int
	if n := len(h.free); n > 0 {
		slot = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		slot = len(h.slots)
		h.slots = append(h.slots, nil)
	}
	if len(h.chunks) == 0 || h.fill == hostChunk {
		h.chunks = append(h.chunks, make([]Agent, hostChunk))
		h.fill = 0
	}
	a := &h.chunks[len(h.chunks)-1][h.fill]
	h.fill++
	h.mu.Unlock()

	if err := initAgent(a, h.cfg.Agent, h, slot); err != nil {
		h.releaseSlot(slot)
		return nil, err
	}
	if err := a.register(); err != nil {
		h.releaseSlot(slot)
		return nil, err
	}
	h.mu.Lock()
	h.slots[slot] = a
	h.live++
	h.mu.Unlock()
	return a, nil
}

// BodyStats reports the host's shared body store: distinct bodies, the bytes
// they hold, and the hosted cache entries referencing them. Refs over Bodies
// is the deduplication ratio.
func (h *AgentHost) BodyStats() BodyStats { return h.bodies.stats() }

// verifierFor returns the host's verifier for the proxy key a registration
// returned, replacing it when the key changed.
func (h *AgentHost) verifierFor(pemKey string) (*integrity.Verifier, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.verifier == nil || pemKey != h.verifierPEM {
		v, err := newVerifier(pemKey)
		if err != nil {
			return nil, err
		}
		h.verifier, h.verifierPEM = v, pemKey
	}
	return h.verifier, nil
}

// releaseSlot returns a never-published slot to the free list.
func (h *AgentHost) releaseSlot(slot int) {
	h.mu.Lock()
	h.free = append(h.free, slot)
	h.mu.Unlock()
}

// remove tears one hosted agent down; Agent.Close/Kill delegate here. The
// slot is vacated FIRST so the shared server stops routing to the agent (410
// Gone) and the pacer starts no beat for it, and a beat already in flight
// completes, before its state unwinds; then the agent's share of the host's
// publisher is flushed (graceful) or dropped, the proxy is told (graceful),
// and the memory goes back to the heap.
func (h *AgentHost) remove(a *Agent, graceful bool) {
	h.mu.Lock()
	if h.hosts(a) {
		h.slots[a.slot] = nil
		h.free = append(h.free, a.slot)
		h.live--
	}
	for h.beating == a {
		h.beatDone.Wait()
	}
	h.mu.Unlock()
	a.beginClose()
	kind := reqDrop
	if graceful {
		kind = reqLeave
	}
	// A failed final flush is already counted in the agent's
	// IndexPublishFailures; the departure goes ahead regardless.
	_ = h.pub.call(a, kind)
	if graceful && a.token != "" {
		a.unregister()
	}
	a.releaseMemory()
}

// Close shuts the host down gracefully: every hosted agent departs as if
// individually Closed (final index flush + unregister), then the shared
// publisher and server stop.
func (h *AgentHost) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	h.mu.Unlock()
	if h.stopHB != nil {
		close(h.stopHB)
		<-h.hbDone
	}
	for _, a := range h.Agents() {
		h.remove(a, true)
	}
	h.pub.stop(true)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	// Every agent has flushed and unregistered by now; what outlived the
	// drain budget is a dialed-but-unused keep-alive connection, which
	// Shutdown never sees go idle.
	h.srv.Close()
	return nil
}

// Kill terminates the host abruptly — the server drops its listener and
// in-flight connections, nothing unregisters, no index flush — simulating a
// whole machine of hosted browsers going dark at once. The proxy discovers
// the departure through failed fetches and missed heartbeats, agent by
// agent.
func (h *AgentHost) Kill() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	h.mu.Unlock()
	h.srv.Close()
	if h.stopHB != nil {
		close(h.stopHB)
		<-h.hbDone
	}
	h.pub.stop(false)
	for _, a := range h.Agents() {
		h.mu.Lock()
		if h.hosts(a) {
			h.slots[a.slot] = nil
			h.live--
		}
		h.mu.Unlock()
		a.beginClose()
		a.releaseMemory()
	}
}

// hosts reports whether a occupies its slot; the caller holds h.mu.
func (h *AgentHost) hosts(a *Agent) bool {
	return a.slot < len(h.slots) && h.slots[a.slot] == a
}

// route is the shared server's handler: /a/<slot>/<peer-path> resolves the
// slot under a read lock and dispatches to the hosted agent's ordinary
// handler. A vacant slot answers 410 Gone, which the proxy books as a failed
// peer fetch, as it would a departed holder's refused connection, so churn
// needs no proxy-side changes.
func (h *AgentHost) route(w http.ResponseWriter, r *http.Request) {
	rest, ok := strings.CutPrefix(r.URL.Path, "/a/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	slash := strings.IndexByte(rest, '/')
	if slash <= 0 {
		http.NotFound(w, r)
		return
	}
	slot, err := strconv.Atoi(rest[:slash])
	if err != nil || slot < 0 {
		http.NotFound(w, r)
		return
	}
	h.mu.RLock()
	var a *Agent
	if slot < len(h.slots) {
		a = h.slots[slot]
	}
	h.mu.RUnlock()
	if a == nil {
		http.Error(w, "host: agent gone", http.StatusGone)
		return
	}
	fn := a.dispatch(rest[slash:])
	if fn == nil {
		http.NotFound(w, r)
		return
	}
	fn(w, r)
}

// heartbeatLoop is the shared pacer: every tick it beats just enough agents
// (round-robin over the slots) that each one is covered once per interval.
// One goroutine and a smooth beat rate replace N timers firing in lockstep.
func (h *AgentHost) heartbeatLoop(interval time.Duration) {
	defer close(h.hbDone)
	tick := min(interval, time.Second)
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-h.stopHB:
			return
		case <-t.C:
			for _, a := range h.beatSet(tick, interval) {
				if h.beginBeat(a) {
					a.heartbeat()
					h.endBeat()
				}
			}
		}
	}
}

// beginBeat marks a's beat in flight, unless a has left its slot since
// beatSet picked it.
func (h *AgentHost) beginBeat(a *Agent) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.hosts(a) {
		return false
	}
	h.beating = a
	return true
}

// endBeat clears the in-flight mark and wakes a remove waiting on it.
func (h *AgentHost) endBeat() {
	h.mu.Lock()
	h.beating = nil
	h.mu.Unlock()
	h.beatDone.Broadcast()
}

// beatSet picks the next round-robin share of live agents to beat this tick:
// live × tick ∕ interval of them, with the fraction carried to the next tick,
// so each agent is beaten once per interval whatever the fleet's size.
func (h *AgentHost) beatSet(tick, interval time.Duration) []*Agent {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.live == 0 {
		h.owed = 0
		return nil
	}
	h.owed += int64(h.live) * int64(tick)
	k := int(h.owed / int64(interval))
	h.owed %= int64(interval)
	out := make([]*Agent, 0, k)
	for scanned := 0; scanned < len(h.slots) && len(out) < k; scanned++ {
		h.cursor = (h.cursor + 1) % len(h.slots)
		if a := h.slots[h.cursor]; a != nil {
			out = append(out, a)
		}
	}
	return out
}
