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

	"baps/internal/index"
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

// batchedCluster starts one agent that does not verify watermarks.
func batchedCluster(t *testing.T, mutate func(*Config)) *cluster {
	t.Helper()
	return startCluster(t, 1, proxy.Config{}, func(cfg *Config) {
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

// postCarrier posts batch as a one-sub-batch carrier authenticated with a's
// token, the way a's publisher would, and returns the proxy's verdict.
func postCarrier(t *testing.T, a *Agent, batch proxy.IndexBatch) proxy.MultiBatchResponse {
	t.Helper()
	batch.ClientID = a.ID()
	body, _ := json.Marshal(proxy.IndexMultiBatch{Batches: []proxy.HostBatch{{IndexBatch: batch, Token: a.token}}})
	resp, err := http.Post(a.cfg.ProxyURL+"/index/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out proxy.MultiBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("carrier status %s: %v", resp.Status, err)
	}
	return out
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
	if m := ag.Snapshot(); m.IndexBatches == 0 || m.IndexSyncs != 0 {
		t.Fatalf("agent sent batches=%d syncs=%d; want only delta batches", m.IndexBatches, m.IndexSyncs)
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
		cfg.batchMaxDelay = time.Hour // only the count threshold may flush
	})
	ag := c.agents[0]
	for i := 0; i < agentFlushDeltas; i++ {
		if _, _, err := ag.Get(context.Background(), c.url(fmt.Sprintf("/doc/c%d?size=64", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 3*time.Second, "count-triggered flush", func() bool {
		return len(proxyDirectory(c, ag.ID())) == agentFlushDeltas
	})
}

func TestBatchedDrainOnClose(t *testing.T) {
	c := batchedCluster(t, func(cfg *Config) {
		cfg.batchMaxDelay = time.Hour // nothing flushes during the run
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
	if r := postCarrier(t, ag, proxy.IndexBatch{Gen: 999}); r.Accepted != 1 {
		t.Fatalf("forged batch not accepted: %+v", r)
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
		cfg.batchMaxDelay = time.Hour // only FlushIndex ships: the test counts batches
	})
	ag := c.agents[0]
	if _, _, err := ag.Get(context.Background(), c.url("/doc/h0")); err != nil {
		t.Fatal(err)
	}
	if err := ag.FlushIndex(); err != nil {
		t.Fatal(err)
	}
	if got := len(proxyDirectory(c, ag.ID())); got != 1 {
		t.Fatalf("proxy directory holds %d after the first batch, want 1", got)
	}

	// Inject drift the generation numbers cannot see: the proxy comes to
	// believe the agent holds a bogus URL.
	bogus := c.url("/doc/never-cached")
	c.proxy.Index().Add(index.Entry{Client: ag.ID(), Doc: c.proxy.Syms().Intern(bogus), Size: 1})

	// A digest-carrying batch must expose the drift and heal it. Every
	// digestEvery-th batch carries one; but a digest is a Bloom filter, so
	// the bogus URL's bits may all be set already and that batch cannot see
	// it. Each poll that has seen no mismatch yet fetches a fresh document
	// and flushes it, so every poll is a new batch and every digestEvery-th
	// one a new digest.
	fresh := 1
	waitUntil(t, 3*time.Second, "digest mismatch and heal", func() bool {
		st := c.proxy.Snapshot()
		if st.IndexDigestMismatches == 0 {
			if _, _, err := ag.Get(context.Background(), c.url(fmt.Sprintf("/doc/h%d", fresh))); err != nil {
				t.Fatal(err)
			}
			if err := ag.FlushIndex(); err != nil {
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
// healing to hide a lost delta (the test asserts no digest mismatch and no
// resync happened).
func TestBatchedConcurrentStoreLosesNoDelta(t *testing.T) {
	c := startCluster(t, 1, proxy.Config{}, func(cfg *Config) {
		cfg.batchMaxDelay = 5 * time.Millisecond // many flushes inside the churn window
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

// TestRejectedSubBatchCountsAsFailure: a sub-batch the proxy refuses (the
// agent's registration is gone) counts as a publish failure, not as a sent
// batch, and FlushIndex reports it.
func TestRejectedSubBatchCountsAsFailure(t *testing.T) {
	c := batchedCluster(t, func(cfg *Config) {
		cfg.batchMaxDelay = time.Hour // only FlushIndex ships
	})
	ag := c.agents[0]
	ag.store(c.url("/doc/x"), []byte("x"), nil, 1)
	if err := ag.FlushIndex(); err != nil {
		t.Fatalf("accepted flush: %v", err)
	}
	if m := ag.Snapshot(); m.IndexBatches != 1 || m.IndexPublishFailures != 0 {
		t.Fatalf("accepted batch miscounted: batches=%d failures=%d", m.IndexBatches, m.IndexPublishFailures)
	}
	ag.unregister() // the proxy forgets the token
	ag.store(c.url("/doc/y"), []byte("y"), nil, 1)
	if err := ag.FlushIndex(); err == nil {
		t.Fatal("FlushIndex reported success for a rejected sub-batch")
	}
	if m := ag.Snapshot(); m.IndexBatches != 1 || m.IndexPublishFailures != 1 {
		t.Fatalf("rejected batch miscounted: batches=%d failures=%d", m.IndexBatches, m.IndexPublishFailures)
	}
}

// TestFlushIndexReadYourWrites: with the interval flush out of the way,
// FlushIndex alone makes the proxy's index reflect the agent's cache —
// standalone and hosted alike.
func TestFlushIndexReadYourWrites(t *testing.T) {
	slow := func(cfg *Config) { cfg.batchMaxDelay = time.Hour }
	c := startCluster(t, 1, proxy.Config{}, slow)
	hosted, err := startHost(t, c, slow).Spawn()
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range []*Agent{c.agents[0], hosted} {
		u := c.url(fmt.Sprintf("/ryw/%d", i))
		if _, _, err := a.Get(context.Background(), u); err != nil {
			t.Fatal(err)
		}
		doc := c.proxy.Syms().Intern(u)
		if c.proxy.Index().Has(a.ID(), doc) {
			t.Fatalf("agent %d: published before FlushIndex — the test proves nothing", i)
		}
		if err := a.FlushIndex(); err != nil {
			t.Fatal(err)
		}
		if !c.proxy.Index().Has(a.ID(), doc) {
			t.Fatalf("agent %d: index misses its own write after FlushIndex", i)
		}
		a.Evict(u)
		if err := a.FlushIndex(); err != nil {
			t.Fatal(err)
		}
		if c.proxy.Index().Has(a.ID(), doc) {
			t.Fatalf("agent %d: index keeps an evicted document after FlushIndex", i)
		}
	}
}

// TestStandaloneAndHostedPublishIdentically is the one-publisher invariant
// under -race: the same store/evict/FlushIndex sequence on a standalone
// agent (a publisher of one) and on a hosted agent (the fleet's publisher)
// leaves the proxy with identical directories and identical generation
// counters for the two, and both serve exactly the bytes they stored — the
// hosted agent out of its host's shared body store.
func TestStandaloneAndHostedPublishIdentically(t *testing.T) {
	mutate := func(cfg *Config) {
		cfg.batchMaxDelay = time.Hour // only FlushIndex ships
		cfg.CacheCapacity = 25_000    // two 10 KB docs fit, a third evicts
		cfg.Verify = false
	}
	// The digestEvery-th batch carries a digest.
	const batches = digestEvery + 1
	c := startCluster(t, 1, proxy.Config{}, mutate)
	h := startHost(t, c, mutate)
	hosted, err := h.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Spawn(); err != nil { // an idle fleet sibling
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("b"), 10_000)
	agents := []*Agent{c.agents[0], hosted}
	var wg sync.WaitGroup
	for _, a := range agents {
		wg.Add(1)
		go func(a *Agent) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				a.store(c.url(fmt.Sprintf("/same/%d", i)), body, nil, int64(i))
				if i%3 == 2 {
					a.Evict(c.url(fmt.Sprintf("/same/%d", i-1)))
				}
				if err := a.FlushIndex(); err != nil {
					t.Error(err)
				}
			}
		}(a)
	}
	wg.Wait()

	dirs := make([][]string, len(agents))
	for i, a := range agents {
		if got, want := proxyDirectory(c, a.ID()), agentDirectory(a); !equalStrings(got, want) {
			t.Fatalf("agent %d: proxy holds %v, agent %v", i, got, want)
		}
		for _, e := range c.proxy.Index().ClientDocs(a.ID()) {
			dirs[i] = append(dirs[i], fmt.Sprintf("%s size=%d version=%d", c.proxy.Syms().String(e.Doc), e.Size, e.Version))
		}
		sort.Strings(dirs[i])
	}
	if !equalStrings(dirs[0], dirs[1]) {
		t.Fatalf("directories differ:\nstandalone %v\nhosted     %v", dirs[0], dirs[1])
	}
	m0, m1 := agents[0].Snapshot(), agents[1].Snapshot()
	if m0.IndexBatches != batches || m1.IndexBatches != batches || m0.IndexPublishFailures+m1.IndexPublishFailures != 0 {
		t.Fatalf("batches standalone=%d hosted=%d failures=%d/%d, want %d each and none",
			m0.IndexBatches, m1.IndexBatches, m0.IndexPublishFailures, m1.IndexPublishFailures, batches)
	}
	// Both generation counters stand at batches at the proxy: the next
	// batch is the successor for each, not a gap.
	for _, a := range agents {
		if r := postCarrier(t, a, proxy.IndexBatch{Gen: batches + 1}); r.Accepted != 1 {
			t.Fatalf("successor batch rejected: %+v", r)
		}
	}
	if st := c.proxy.Snapshot(); st.IndexGenGaps != 0 || st.IndexDigestMismatches != 0 || st.IndexResyncPulls != 0 {
		t.Fatalf("gaps=%d mismatches=%d pulls=%d, want none", st.IndexGenGaps, st.IndexDigestMismatches, st.IndexResyncPulls)
	}
	for _, u := range agentDirectory(agents[0]) {
		for i, a := range agents {
			rec := peerGet(a, u)
			got, src, err := a.Get(context.Background(), u)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), body) ||
				err != nil || src != SourceLocal || !bytes.Equal(got, body) {
				t.Fatalf("agent %d, %s: peer serve %d with the stored bytes %v; Get %v %v with the stored bytes %v",
					i, u, rec.Code, bytes.Equal(rec.Body.Bytes(), body), src, err, bytes.Equal(got, body))
			}
		}
	}
}
