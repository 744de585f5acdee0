package proxy

import (
	"net"
	"net/http"
	"time"
)

// Connection-pool sizing for the live system's three traffic classes. The
// stock http.DefaultTransport keeps only 2 idle connections per host, which
// collapses under a proxy pushing dozens of concurrent misses at one origin:
// every request past the second re-dials, pays connect latency, and leaves a
// TIME_WAIT corpse behind.
const (
	// OriginIdleConnsPerHost sizes the proxy→origin pool. Misses
	// concentrate on few origin hosts, so this is the deepest pool.
	OriginIdleConnsPerHost = 128
	// PeerIdleConnsPerHost sizes the proxy→browser pool. Peer traffic
	// fans out across many holder hosts, so each needs only a few warm
	// connections.
	PeerIdleConnsPerHost = 8
)

// NewTransport returns a keep-alive-tuned *http.Transport for live BAPS
// traffic (proxy→origin, proxy→peer, and browser-agent→proxy clients all
// build on it). Compared to http.DefaultTransport it deepens the per-host
// idle pool, bounds dial and TLS-handshake time so a black-holed host fails
// fast, and widens the socket buffers to the document-copy tier.
func NewTransport(maxIdlePerHost int) *http.Transport {
	if maxIdlePerHost <= 0 {
		maxIdlePerHost = PeerIdleConnsPerHost
	}
	return &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   2 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:          1024,
		MaxIdleConnsPerHost:   maxIdlePerHost,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   3 * time.Second,
		ExpectContinueTimeout: time.Second,
		WriteBufferSize:       64 << 10,
		ReadBufferSize:        64 << 10,
	}
}
