package browser

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	"baps/internal/proxy"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// batchedCluster starts one Batched-mode agent with a fast flush interval.
func batchedCluster(t *testing.T, mutate func(*Config)) *cluster {
	t.Helper()
	return startCluster(t, 1, proxy.Config{}, func(cfg *Config) {
		cfg.IndexMode = Batched
		cfg.BatchMaxDelay = 10 * time.Millisecond
		cfg.DigestEvery = 0
		cfg.Verify = false
		if mutate != nil {
			mutate(cfg)
		}
	})
}

// proxyDirectory returns the sorted URLs the proxy's index believes the
// client holds.
func proxyDirectory(c *cluster, client int) []string {
	var urls []string
	for _, e := range c.proxy.Index().ClientDocs(client) {
		urls = append(urls, c.proxy.Syms().String(e.Doc))
	}
	sort.Strings(urls)
	return urls
}

// agentDirectory returns the agent's sorted cache directory.
func agentDirectory(a *Agent) []string {
	a.mu.Lock()
	keys := append([]string(nil), a.cache.Keys()...)
	a.mu.Unlock()
	sort.Strings(keys)
	return keys
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBatchedPublishReachesProxy(t *testing.T) {
	c := batchedCluster(t, nil)
	ag := c.agents[0]
	for i := 0; i < 3; i++ {
		if _, _, err := ag.Get(context.Background(), c.url(fmt.Sprintf("/doc/b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 3*time.Second, "batched deltas to reach the proxy index", func() bool {
		return equalStrings(proxyDirectory(c, ag.ID()), agentDirectory(ag))
	})
	if m := ag.Snapshot(); m.IndexBatches == 0 || m.IndexOps != 0 || m.IndexSyncs != 0 {
		t.Fatalf("batched agent sent batches=%d ops=%d syncs=%d; want only batches", m.IndexBatches, m.IndexOps, m.IndexSyncs)
	}
	st := c.proxy.Snapshot()
	if st.IndexBatches == 0 || st.IndexBatchDeltas < 3 {
		t.Fatalf("proxy counted batches=%d deltas=%d", st.IndexBatches, st.IndexBatchDeltas)
	}
	if st.IndexGenGaps != 0 || st.IndexDigestMismatches != 0 || st.IndexResyncPulls != 0 {
		t.Fatalf("clean run reported drift: %+v", st)
	}
}

func TestBatchedCountTriggersFlush(t *testing.T) {
	c := batchedCluster(t, func(cfg *Config) {
		cfg.BatchMaxDelay = time.Hour // only the count threshold may flush
		cfg.BatchMaxCount = 4
	})
	ag := c.agents[0]
	for i := 0; i < 4; i++ {
		if _, _, err := ag.Get(context.Background(), c.url(fmt.Sprintf("/doc/c%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 3*time.Second, "count-triggered flush", func() bool {
		return len(proxyDirectory(c, ag.ID())) == 4
	})
}

func TestBatchedDrainOnClose(t *testing.T) {
	c := batchedCluster(t, func(cfg *Config) {
		cfg.BatchMaxDelay = time.Hour
		cfg.BatchMaxCount = 1 << 20 // nothing flushes during the run
	})
	ag := c.agents[0]
	for i := 0; i < 3; i++ {
		if _, _, err := ag.Get(context.Background(), c.url(fmt.Sprintf("/doc/d%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Give the enqueues a moment, then confirm nothing has flushed yet.
	time.Sleep(50 * time.Millisecond)
	if n := len(proxyDirectory(c, ag.ID())); n != 0 {
		t.Fatalf("deltas flushed before Close (%d entries) — thresholds not honored", n)
	}
	if err := ag.Close(); err != nil {
		t.Fatal(err)
	}
	st := c.proxy.Snapshot()
	if st.IndexBatches != 1 || st.IndexBatchDeltas != 3 {
		t.Fatalf("drain-on-close: batches=%d deltas=%d, want 1/3", st.IndexBatches, st.IndexBatchDeltas)
	}
	// The unregister that follows the drain drops the entries themselves.
	if n := len(proxyDirectory(c, ag.ID())); n != 0 {
		t.Fatalf("%d index entries survived unregister", n)
	}
}

func TestGenGapTriggersResyncPull(t *testing.T) {
	c := batchedCluster(t, nil)
	ag := c.agents[0]
	if _, _, err := ag.Get(context.Background(), c.url("/doc/g0")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 3*time.Second, "first batch", func() bool {
		return len(proxyDirectory(c, ag.ID())) == 1
	})

	// Forge a far-future generation (a lost-batch window the proxy cannot
	// see into): it must count a gap and pull a full re-sync.
	body, _ := json.Marshal(proxy.IndexBatch{ClientID: ag.ID(), Gen: 999})
	req, _ := http.NewRequest(http.MethodPost, ag.cfg.ProxyURL+"/index/batch", bytes.NewReader(body))
	ag.authHeaders(req)
	resp, err := ag.httpClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	proxy.DrainClose(resp)
	if resp.StatusCode/100 != 2 {
		t.Fatalf("forged batch status %s", resp.Status)
	}

	waitUntil(t, 3*time.Second, "gap-triggered resync pull", func() bool {
		st := c.proxy.Snapshot()
		return st.IndexGenGaps >= 1 && st.IndexResyncPulls >= 1 && ag.Snapshot().IndexSyncs >= 1
	})
	// The recovery sync must restore the exact directory and re-seat the
	// generation so subsequent batches apply cleanly.
	if _, _, err := ag.Get(context.Background(), c.url("/doc/g1")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 3*time.Second, "post-recovery batch to apply", func() bool {
		return equalStrings(proxyDirectory(c, ag.ID()), agentDirectory(ag))
	})
	if gaps := c.proxy.Snapshot().IndexGenGaps; gaps != 1 {
		t.Fatalf("post-recovery batches counted as gaps (%d)", gaps)
	}
}

func TestDigestMismatchTriggersResync(t *testing.T) {
	c := batchedCluster(t, func(cfg *Config) {
		cfg.DigestEvery = 1 // every batch carries a digest
	})
	ag := c.agents[0]
	if _, _, err := ag.Get(context.Background(), c.url("/doc/h0")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 3*time.Second, "first digest batch", func() bool {
		return len(proxyDirectory(c, ag.ID())) == 1
	})

	// Inject drift the generation numbers cannot see: a forged immediate
	// /index/add makes the proxy believe the agent holds a bogus URL.
	bogus := c.url("/doc/never-cached")
	body, _ := json.Marshal(proxy.IndexUpdate{ClientID: ag.ID(), Entry: proxy.IndexEntry{URL: bogus, Size: 1}})
	req, _ := http.NewRequest(http.MethodPost, ag.cfg.ProxyURL+"/index/add", bytes.NewReader(body))
	ag.authHeaders(req)
	resp, err := ag.httpClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	proxy.DrainClose(resp)
	if !c.proxy.Index().Has(ag.ID(), c.proxy.Syms().Intern(bogus)) {
		t.Fatal("drift injection failed")
	}

	// A digest-carrying batch must expose the drift and heal it. Usually
	// the next one does; but a digest is a Bloom filter (20 bits for two
	// keys), so the bogus URL's bits may all be set already and that batch
	// cannot see it. Each poll that has seen no mismatch yet fetches a fresh
	// document, so every retry is a new batch with a new digest.
	fresh := 1
	waitUntil(t, 3*time.Second, "digest mismatch and heal", func() bool {
		st := c.proxy.Snapshot()
		if st.IndexDigestMismatches == 0 {
			if _, _, err := ag.Get(context.Background(), c.url(fmt.Sprintf("/doc/h%d", fresh))); err != nil {
				t.Fatal(err)
			}
			fresh++
			return false
		}
		return st.IndexResyncPulls >= 1 &&
			!c.proxy.Index().Has(ag.ID(), c.proxy.Syms().Intern(bogus)) &&
			equalStrings(proxyDirectory(c, ag.ID()), agentDirectory(ag))
	})
}

// TestBatchedConcurrentStoreLosesNoDelta is the -race proof of the tentpole
// invariant: concurrent store/evict churn during flushes — coalescing, a
// full cache forcing evictions, out-of-order enqueues — converges to a proxy
// view identical to the browser's directory, with no digest or resync
// healing to hide a lost delta (DigestEvery=0, and the test asserts no
// resync happened).
func TestBatchedConcurrentStoreLosesNoDelta(t *testing.T) {
	c := startCluster(t, 1, proxy.Config{}, func(cfg *Config) {
		cfg.IndexMode = Batched
		cfg.BatchMaxDelay = 5 * time.Millisecond
		cfg.BatchMaxCount = 8
		cfg.DigestEvery = 0
		cfg.Verify = false
		cfg.CacheCapacity = 64 << 10 // tiny: constant evictions
	})
	ag := c.agents[0]
	const (
		workers = 8
		gets    = 60
		docs    = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 99))
			for i := 0; i < gets; i++ {
				u := c.url(fmt.Sprintf("/doc/r%d", rng.IntN(docs)))
				if _, _, err := ag.Get(context.Background(), u); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if i%7 == 0 {
					ag.Evict(u)
				}
			}
		}()
	}
	wg.Wait()
	waitUntil(t, 5*time.Second, "proxy view to converge on the browser directory", func() bool {
		return equalStrings(proxyDirectory(c, ag.ID()), agentDirectory(ag))
	})
	st := c.proxy.Snapshot()
	if st.IndexGenGaps != 0 || st.IndexDigestMismatches != 0 || st.IndexResyncPulls != 0 {
		t.Fatalf("convergence needed recovery (gaps=%d mismatches=%d pulls=%d) — deltas were lost or misordered",
			st.IndexGenGaps, st.IndexDigestMismatches, st.IndexResyncPulls)
	}
	if m := ag.Snapshot(); m.IndexPublishFailures != 0 {
		t.Fatalf("publish failures during clean run: %d", m.IndexPublishFailures)
	}
}

// TestIndexOpCountsOnlyAcceptedResponses pins the satellite bugfix: an
// index message the proxy rejects (bad token → 4xx) must count as a publish
// failure, not as a sent op.
func TestIndexOpCountsOnlyAcceptedResponses(t *testing.T) {
	c := startCluster(t, 1, proxy.Config{}, func(cfg *Config) {
		cfg.IndexMode = Immediate
		cfg.Verify = false
	})
	ag := c.agents[0]
	goodToken := ag.token
	ag.token = "corrupted"
	ag.indexOp(true, proxy.IndexEntry{URL: c.url("/doc/x"), Size: 1})
	m := ag.Snapshot()
	if m.IndexOps != 0 {
		t.Fatalf("rejected op counted as sent (IndexOps=%d)", m.IndexOps)
	}
	if m.IndexPublishFailures != 1 {
		t.Fatalf("rejected op not counted as failure (failures=%d)", m.IndexPublishFailures)
	}
	ag.token = goodToken
	ag.indexOp(true, proxy.IndexEntry{URL: c.url("/doc/x"), Size: 1})
	m = ag.Snapshot()
	if m.IndexOps != 1 || m.IndexPublishFailures != 1 {
		t.Fatalf("accepted op miscounted: ops=%d failures=%d", m.IndexOps, m.IndexPublishFailures)
	}
}
