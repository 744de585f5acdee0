package chaos

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"baps/internal/browser"
	"baps/internal/origin"
	"baps/internal/proxy"
)

// ChurnCluster is a live BAPS deployment built for killing: a synthetic
// origin, a browsers-aware proxy, and n agents each fronted by a fault
// Gateway. Peers can crash (gateway down), stall, corrupt, revive at the
// same identity, or die for real (agent killed), while workloads keep
// running against the surviving fleet.
type ChurnCluster struct {
	Origin   *origin.Server
	Proxy    *proxy.Server
	Agents   []*browser.Agent
	Gateways []*Gateway
	// Hosts are lean multiplexed agent fleets (AddHost): churn can kill
	// individual hosted agents or a whole host — one listener, one
	// transport, one index publisher — in a single blow.
	Hosts  []*browser.AgentHost
	Hosted [][]*browser.Agent

	originLn  net.Listener
	originSrv *http.Server
	originURL string
	pcfg      proxy.Config
}

// NewChurnCluster brings the whole deployment up on loopback. pcfg
// parameterizes the proxy (zero KeyBits gets a fast 1024-bit test key);
// mutate, when non-nil, adjusts each agent's config before start.
func NewChurnCluster(n int, pcfg proxy.Config, mutate func(*browser.Config)) (*ChurnCluster, error) {
	c := &ChurnCluster{Origin: origin.New(4242)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: origin listen: %w", err)
	}
	c.originLn = ln
	c.originURL = "http://" + ln.Addr().String()
	c.originSrv = &http.Server{Handler: c.Origin.Handler()}
	go c.originSrv.Serve(ln)

	if pcfg.KeyBits == 0 {
		pcfg.KeyBits = 1024
	}
	c.pcfg = pcfg
	p, err := proxy.New(pcfg)
	if err != nil {
		c.Close()
		return nil, err
	}
	if err := p.Start(""); err != nil {
		c.Close()
		return nil, err
	}
	c.Proxy = p

	for i := 0; i < n; i++ {
		g, err := NewGateway()
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Gateways = append(c.Gateways, g)
		acfg := browser.DefaultConfig(p.BaseURL())
		acfg.CacheCapacity = 1 << 20
		acfg.AdvertisePeerURL = g.URL()
		if mutate != nil {
			mutate(&acfg)
		}
		a, err := browser.New(acfg)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("chaos: agent %d: %w", i, err)
		}
		g.SetBackend(a.PeerURL())
		c.Agents = append(c.Agents, a)
	}
	return c, nil
}

// DocURL builds an origin URL for path, forcing a fixed body size so tests
// control cache admission.
func (c *ChurnCluster) DocURL(path string, size int) string {
	return fmt.Sprintf("%s%s?size=%d", c.originURL, path, size)
}

// OriginURL is the synthetic origin's base URL.
func (c *ChurnCluster) OriginURL() string { return c.originURL }

// CrashPeer makes peer i unreachable (its gateway drops every connection)
// without killing the agent — the peer can later revive at the same
// identity with RevivePeer.
func (c *ChurnCluster) CrashPeer(i int) { c.Gateways[i].SetFault(FaultDown) }

// StallPeer makes peer i hang every request for d (0 = until the caller's
// deadline).
func (c *ChurnCluster) StallPeer(i int, d time.Duration) {
	c.Gateways[i].SetStall(d)
	c.Gateways[i].SetFault(FaultStall)
}

// CorruptPeer makes peer i serve corrupted bodies.
func (c *ChurnCluster) CorruptPeer(i int) { c.Gateways[i].SetFault(FaultCorrupt) }

// RevivePeer heals peer i's gateway.
func (c *ChurnCluster) RevivePeer(i int) { c.Gateways[i].SetFault(FaultNone) }

// KillAgent terminates agent i abruptly — no unregister, no drain — and
// downs its gateway. The proxy discovers the departure only through failed
// fetches or missed heartbeats.
func (c *ChurnCluster) KillAgent(i int) {
	c.Gateways[i].SetFault(FaultDown)
	c.Agents[i].Kill()
}

// AddHost attaches a lean AgentHost to the cluster's proxy and spawns
// perHost hosted agents on it, returning the host's index. Hosted agents
// talk to the proxy directly (no per-agent gateway): host-level churn is
// injected by killing agents or the whole host, not by fronting faults.
func (c *ChurnCluster) AddHost(perHost int, mutate func(*browser.Config)) (int, error) {
	acfg := browser.DefaultConfig(c.Proxy.BaseURL())
	acfg.CacheCapacity = 1 << 20
	if mutate != nil {
		mutate(&acfg)
	}
	h, err := browser.NewHost(browser.HostConfig{Agent: acfg})
	if err != nil {
		return 0, fmt.Errorf("chaos: host: %w", err)
	}
	var agents []*browser.Agent
	for i := 0; i < perHost; i++ {
		a, err := h.Spawn()
		if err != nil {
			h.Close()
			return 0, fmt.Errorf("chaos: hosted agent %d: %w", i, err)
		}
		agents = append(agents, a)
	}
	c.Hosts = append(c.Hosts, h)
	c.Hosted = append(c.Hosted, agents)
	return len(c.Hosts) - 1, nil
}

// KillHostedAgent abruptly kills agent i of host h: its slot frees for
// reuse, its share of the host's index publisher is dropped, and its
// /a/<slot> route answers 410 until a replacement takes the slot.
func (c *ChurnCluster) KillHostedAgent(h, i int) { c.Hosted[h][i].Kill() }

// SpawnHostedAgent adds one agent to host h (churn replacement: freed slots
// are reused LIFO, so the newcomer re-advertises a dead agent's URL and the
// proxy's register-supersede retires the stale registration).
func (c *ChurnCluster) SpawnHostedAgent(h int) (*browser.Agent, error) {
	a, err := c.Hosts[h].Spawn()
	if err != nil {
		return nil, err
	}
	c.Hosted[h] = append(c.Hosted[h], a)
	return a, nil
}

// KillHost takes down host h whole — listener, shared transport, publisher,
// and every hosted agent at once, with no unregisters — the box-level
// failure mode a lean fleet introduces.
func (c *ChurnCluster) KillHost(h int) { c.Hosts[h].Kill() }

// RestartProxy replaces the proxy with a fresh instance on the same address
// and config. graceful=false models SIGKILL (Crash: no journal flush, no
// state save); graceful=true models SIGTERM (Close: drain and flush). With
// a DataDir in the proxy config the replacement warm-starts from disk;
// agents keep their registrations and talk to the same base URL throughout.
func (c *ChurnCluster) RestartProxy(graceful bool) error {
	addr := strings.TrimPrefix(c.Proxy.BaseURL(), "http://")
	if graceful {
		c.Proxy.Close()
	} else {
		c.Proxy.Crash()
	}
	p, err := proxy.New(c.pcfg)
	if err != nil {
		return fmt.Errorf("chaos: restart proxy: %w", err)
	}
	// The freed port can lag a beat on some kernels; retry briefly.
	for i := 0; ; i++ {
		if err = p.Start(addr); err == nil {
			break
		}
		if i == 20 {
			return fmt.Errorf("chaos: rebind %s: %w", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	c.Proxy = p
	return nil
}

// Close tears the whole cluster down (survivors depart gracefully).
func (c *ChurnCluster) Close() {
	for _, a := range c.Agents {
		a.Close()
	}
	for _, h := range c.Hosts {
		h.Close()
	}
	for _, g := range c.Gateways {
		g.Close()
	}
	if c.Proxy != nil {
		c.Proxy.Close()
	}
	if c.originSrv != nil {
		c.originSrv.Close()
	}
}
