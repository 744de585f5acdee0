package baps

import (
	"fmt"
	"net/http/httptest"

	"baps/internal/browser"
	"baps/internal/origin"
	"baps/internal/proxy"
)

// Re-exported live-system types.
type (
	// ProxyConfig parameterizes the live browsers-aware proxy.
	ProxyConfig = proxy.Config
	// ProxyStats is the live proxy's metric snapshot.
	ProxyStats = proxy.Stats
	// AgentConfig parameterizes a live browser agent.
	AgentConfig = browser.Config
	// Agent is a live browser client.
	Agent = browser.Agent
	// Source classifies where a live Get was satisfied.
	Source = browser.Source
)

// Live source values.
const (
	SourceLocal  = browser.SourceLocal
	SourceProxy  = browser.SourceProxy
	SourceRemote = browser.SourceRemote
	SourceOrigin = browser.SourceOrigin
)

// Live delivery modes for remote-browser hits: §2's fetch-forward, and
// direct-forward through the §6.2 proxy anonymizer.
const (
	ForwardFetch  = proxy.FetchForward
	ForwardDirect = proxy.DirectForward
)

// Cluster is an in-process deployment of the live system: a synthetic
// origin, one browsers-aware proxy, and N browser agents, all on loopback
// HTTP. It exists for examples, demos and end-to-end tests; production
// deployments run cmd/bapsorigin, cmd/bapsproxy and cmd/bapsbrowser
// separately.
type Cluster struct {
	Origin   *origin.Server
	OriginTS *httptest.Server
	Proxy    *proxy.Server
	Agents   []*Agent
}

// ClusterConfig assembles a Cluster.
type ClusterConfig struct {
	// Agents is the number of browser agents (default 3).
	Agents int
	// Proxy overrides the proxy configuration (zero value → defaults
	// with a 1024-bit test key is NOT applied here; set KeyBits yourself
	// for fast startup).
	Proxy ProxyConfig
	// MutateAgent edits each agent's config before start.
	MutateAgent func(i int, cfg *AgentConfig)
	// OriginSeed seeds the synthetic origin's content.
	OriginSeed int64
}

// StartCluster brings the live system up. Call Close when done.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Agents <= 0 {
		cfg.Agents = 3
	}
	if cfg.Proxy.CacheCapacity == 0 {
		cfg.Proxy = proxy.DefaultConfig()
	}
	c := &Cluster{Origin: origin.New(cfg.OriginSeed)}
	c.OriginTS = httptest.NewServer(c.Origin.Handler())

	p, err := proxy.New(cfg.Proxy)
	if err != nil {
		c.Close()
		return nil, err
	}
	if err := p.Start(""); err != nil {
		c.Close()
		return nil, err
	}
	c.Proxy = p

	for i := 0; i < cfg.Agents; i++ {
		acfg := browser.DefaultConfig(p.BaseURL())
		if cfg.MutateAgent != nil {
			cfg.MutateAgent(i, &acfg)
		}
		a, err := browser.New(acfg)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("baps: agent %d: %w", i, err)
		}
		c.Agents = append(c.Agents, a)
	}
	return c, nil
}

// DocURL forms an origin document URL for a path like "/docs/a".
func (c *Cluster) DocURL(path string) string { return c.OriginTS.URL + path }

// Close tears the cluster down in reverse order.
func (c *Cluster) Close() {
	for _, a := range c.Agents {
		a.Close()
	}
	if c.Proxy != nil {
		c.Proxy.Close()
	}
	if c.OriginTS != nil {
		c.OriginTS.Close()
	}
}
