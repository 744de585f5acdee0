// Command bapsbrowser runs a live browser agent connected to a
// browsers-aware proxy. It reads document URLs from stdin (one per line),
// resolves each through the local cache → proxy → peer/origin pipeline, and
// reports where every document came from. Index updates ship as batched
// deltas; a graceful exit flushes the last batch before unregistering.
//
// Usage:
//
//	echo http://127.0.0.1:8080/docs/a | bapsbrowser -proxy http://127.0.0.1:8081
//
// Flags:
//
//	-proxy URL     browsers-aware proxy base URL (required)
//	-cache N       browser cache capacity in bytes (default 8 MiB)
//	-no-verify     skip watermark verification
//	-heartbeat D   liveness beacon period (default 5s; 0 disables)
//	-logjson       emit structured logs as JSON instead of text
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"baps/internal/browser"
)

func main() {
	proxyURL := flag.String("proxy", "", "browsers-aware proxy base URL")
	cacheCap := flag.Int64("cache", 8<<20, "browser cache capacity in bytes")
	noVerify := flag.Bool("no-verify", false, "skip watermark verification")
	heartbeat := flag.Duration("heartbeat", 5*time.Second, "liveness beacon period (0 disables)")
	logjson := flag.Bool("logjson", false, "emit structured logs as JSON instead of text")
	flag.Parse()

	var logger *slog.Logger
	if *logjson {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	} else {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if *proxyURL == "" {
		fmt.Fprintln(os.Stderr, "bapsbrowser: -proxy is required")
		flag.Usage()
		os.Exit(2)
	}
	cfg := browser.DefaultConfig(*proxyURL)
	cfg.Logger = logger
	cfg.CacheCapacity = *cacheCap
	cfg.Verify = !*noVerify
	cfg.HeartbeatInterval = *heartbeat
	a, err := browser.New(cfg)
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}
	defer a.Close()
	logger.Info("bapsbrowser ready",
		"client", a.ID(), "proxy", *proxyURL, "peer_url", a.PeerURL(),
		"metrics", a.PeerURL()+"/metrics")

	// SIGINT/SIGTERM while blocked on stdin: close gracefully (drain the
	// index publisher, unregister, stop the peer server) instead of dying
	// with updates still queued.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		logger.Info("shutting down", "signal", sig.String())
		a.Close()
		os.Exit(0)
	}()

	sc := bufio.NewScanner(os.Stdin)
	ctx := context.Background()
	for sc.Scan() {
		u := strings.TrimSpace(sc.Text())
		if u == "" || strings.HasPrefix(u, "#") {
			continue
		}
		body, src, err := a.Get(ctx, u)
		if err != nil {
			fmt.Printf("ERR   %-8s %s: %v\n", "-", u, err)
			continue
		}
		fmt.Printf("OK    %-8s %s (%d bytes)\n", src, u, len(body))
	}
	m := a.Snapshot()
	fmt.Printf("done: %d requests — local %d, proxy %d, remote %d, origin %d; served %d peer transfers\n",
		m.Requests, m.LocalHits, m.ProxyHits, m.RemoteHits, m.OriginMiss, m.PeerServes)
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "bapsbrowser: stdin: %v\n", err)
		os.Exit(1)
	}
}
