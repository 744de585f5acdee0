// Command bapsproxy runs the live browsers-aware proxy server.
//
// Usage:
//
//	bapsproxy [-addr 127.0.0.1:8081] [-capacity 268435456] [-policy LRU]
//	          [-forward fetch|direct] [-no-peer] [-keybits 2048]
//	          [-breaker-threshold 3] [-breaker-cooldown 10s]
//	          [-heartbeat-timeout 30s] [-peer-soft-deadline 2.5s]
//	          [-origin-retries 2] [-logjson]
//	          [-datadir DIR] [-fsync interval|always|never]
//	          [-disk-max-bytes N] [-disk-retention D]
//
// Browser agents (cmd/bapsbrowser or internal/browser) register at
// POST /register and then resolve documents through GET /fetch.
//
// With -datadir the proxy cache is crash-safe: demoted documents spill to a
// journaled disk store under DIR and a restart replays it, warm-starting the
// cache, the /stats counters, and the client/generation tables. SIGINT and
// SIGTERM shut down gracefully (in-flight requests drain, the journal
// flushes); SIGKILL loses at most the last fsync interval.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"baps/internal/cache"
	"baps/internal/diskstore"
	"baps/internal/proxy"
)

// newLogger builds the process logger: text to stderr by default, JSON when
// the operator asks for machine-readable logs.
func newLogger(json bool) *slog.Logger {
	if json {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8081", "listen address")
	capacity := flag.Int64("capacity", 256<<20, "proxy cache capacity in bytes")
	policyName := flag.String("policy", "LRU", "replacement policy (LRU, FIFO, LFU, SIZE, GDSF)")
	forward := flag.String("forward", "fetch", "remote-hit delivery to registered clients: fetch (proxy relays) or direct (anonymous drop); anonymous clients always get fetch")
	noPeer := flag.Bool("no-peer", false, "disable the browsers-aware layer (plain proxy baseline)")
	keyBits := flag.Int("keybits", 2048, "watermark RSA key size")
	peerTimeout := flag.Duration("peer-timeout", 5*time.Second, "holder contact / relay wait bound")
	softDeadline := flag.Duration("peer-soft-deadline", 2500*time.Millisecond, "hedge the origin when the peer path exceeds this (0 disables)")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive failures that trip a browser peer's or sibling proxy's circuit breaker (0 disables both)")
	breakerCooldown := flag.Duration("breaker-cooldown", 10*time.Second, "open-breaker cooldown before a half-open probe")
	heartbeatTimeout := flag.Duration("heartbeat-timeout", 30*time.Second, "quarantine peers silent this long (0 disables the sweep)")
	originRetries := flag.Int("origin-retries", 2, "retries for transient origin failures (backoff + jitter)")
	logjson := flag.Bool("logjson", false, "emit structured logs as JSON instead of text")
	dataDir := flag.String("datadir", "", "crash-safe disk tier directory (empty: memory only)")
	fsync := flag.String("fsync", "interval", "disk durability: interval, always, or never")
	diskMaxBytes := flag.Int64("disk-max-bytes", 0, "disk tier live-byte bound (0: same as -capacity)")
	diskRetention := flag.Duration("disk-retention", 0, "evict disk documents untouched this long (0 disables)")
	peers := flag.String("peers", "", "comma-separated sibling proxy base URLs to federate with (empty: standalone)")
	digestInterval := flag.Duration("digest-interval", time.Second, "sibling Bloom-digest push period (federated runs)")
	maxRPS := flag.Int("max-rps", 0, "fetch admission cap in requests/sec (0: unlimited)")
	revalidateAfter := flag.Duration("revalidate-after", 0, "background-revalidate cached documents older than this (0 disables)")
	revalidateEvery := flag.Duration("revalidate-every", 0, "revalidation scan period (0: revalidate-after/4)")
	prefetchInterval := flag.Duration("prefetch-interval", 0, "popularity-scan period for pushing hot docs into browser caches (0 disables)")
	prefetchMinHits := flag.Int("prefetch-min-hits", 0, "access count that makes a document a prefetch candidate (0: default 3)")
	flag.Parse()

	logger := newLogger(*logjson)
	policy, err := cache.ParsePolicy(*policyName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bapsproxy: %v\n", err)
		os.Exit(2)
	}
	fsyncPolicy, err := diskstore.ParseFsyncPolicy(*fsync)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bapsproxy: %v\n", err)
		os.Exit(2)
	}
	cfg := proxy.DefaultConfig()
	cfg.Logger = logger
	cfg.CacheCapacity = *capacity
	cfg.Policy = policy
	cfg.KeyBits = *keyBits
	cfg.PeerTimeout = *peerTimeout
	cfg.PeerSoftDeadline = *softDeadline
	cfg.BreakerThreshold = *breakerThreshold
	cfg.BreakerCooldown = *breakerCooldown
	cfg.HeartbeatTimeout = *heartbeatTimeout
	cfg.OriginRetries = *originRetries
	cfg.DisablePeer = *noPeer
	cfg.DataDir = *dataDir
	cfg.DiskFsync = fsyncPolicy
	cfg.DiskMaxBytes = *diskMaxBytes
	cfg.DiskRetention = *diskRetention
	cfg.DigestInterval = *digestInterval
	cfg.MaxFetchRPS = *maxRPS
	cfg.RevalidateAfter = *revalidateAfter
	cfg.RevalidateEvery = *revalidateEvery
	cfg.PrefetchInterval = *prefetchInterval
	cfg.PrefetchMinHits = *prefetchMinHits
	switch *forward {
	case "fetch":
		cfg.Forward = proxy.FetchForward
	case "direct":
		cfg.Forward = proxy.DirectForward
	default:
		fmt.Fprintf(os.Stderr, "bapsproxy: unknown forward mode %q\n", *forward)
		os.Exit(2)
	}
	s, err := proxy.New(cfg)
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}
	if err := s.Start(*addr); err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	if *peers != "" {
		var sibs []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				sibs = append(sibs, p)
			}
		}
		if err := s.JoinCluster(sibs); err != nil {
			logger.Error("federation join failed", "err", err)
			s.Close()
			os.Exit(1)
		}
		logger.Info("federated", "siblings", len(sibs), "digest_interval", *digestInterval)
	}
	logger.Info("bapsproxy serving",
		"url", s.BaseURL(), "cache_bytes", *capacity, "policy", policy.String(),
		"forward", *forward, "datadir", *dataDir,
		"metrics", s.BaseURL()+"/metrics", "trace", s.BaseURL()+"/trace")

	// Serve until SIGINT/SIGTERM, then drain in-flight requests, flush the
	// disk journal and persist the state blob (Server.Close does all three).
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigc
	logger.Info("shutting down", "signal", sig.String())
	if err := s.Close(); err != nil {
		logger.Error("shutdown incomplete", "err", err)
		os.Exit(1)
	}
	logger.Info("bapsproxy stopped")
}
