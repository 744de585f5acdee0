package proxy

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"baps/internal/bloom"
	"baps/internal/index"
)

// postCarrier posts one POST /index/batch carrier and returns the proxy's
// per-sub-batch verdict.
func postCarrier(t *testing.T, s *Server, batches ...HostBatch) MultiBatchResponse {
	t.Helper()
	body, err := json.Marshal(IndexMultiBatch{Batches: batches})
	if err != nil {
		t.Fatalf("marshal carrier: %v", err)
	}
	resp, err := http.Post(s.BaseURL()+"/index/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post carrier: %v", err)
	}
	defer resp.Body.Close()
	var out MultiBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("carrier status %s: %v", resp.Status, err)
	}
	return out
}

// postBatch posts batch as reg's sub-batch, authenticated with reg's token.
func postBatch(t *testing.T, s *Server, reg RegisterResponse, batch IndexBatch) MultiBatchResponse {
	t.Helper()
	batch.ClientID = reg.ClientID
	return postCarrier(t, s, HostBatch{IndexBatch: batch, Token: reg.Token})
}

// addIndexEntry publishes one upsert for reg as a one-delta batch.
func addIndexEntry(t *testing.T, s *Server, reg RegisterResponse, url string, size int64) {
	t.Helper()
	if r := postBatch(t, s, reg, IndexBatch{Gen: 1, Deltas: []IndexDelta{{URL: url, Size: size}}}); r.Accepted != 1 {
		t.Fatalf("index delta for %s rejected: %+v", url, r)
	}
}

// TestResyncRateLimitConcurrent floods the proxy with concurrent anomalous
// batches — generation gaps and corrupt digests interleaved — and verifies
// the /peer/resync recovery pull stays rate-limited to one per client per
// window: a burst collapses into exactly one pull, and a fresh anomaly after
// the window earns exactly one more.
func TestResyncRateLimitConcurrent(t *testing.T) {
	var resyncs atomic.Int64
	browser := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/peer/resync" {
			resyncs.Add(1)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer browser.Close()

	s := testServer(t, nil)
	reg := register(t, s, browser.URL)

	// 20 concurrent batches, every one a drift trigger: even workers send
	// corrupt digests (unparseable → treated as mismatch), odd workers send
	// wildly jumping generations (gap). All should fold into ONE pull.
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := IndexBatch{Gen: uint64(1000 + i*7)}
			if i%2 == 0 {
				b.Digest = "!!!not-base64!!!"
			}
			if r := postBatch(t, s, reg, b); r.Accepted != 1 {
				t.Errorf("batch %d: %+v", i, r)
			}
		}(i)
	}
	wg.Wait()

	// The pull runs on its own goroutine; give it a moment to land, then
	// hold long enough to catch any extras that would violate the limit.
	deadline := time.Now().Add(time.Second)
	for resyncs.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if got := resyncs.Load(); got != 1 {
		t.Fatalf("resync pulls after burst = %d, want exactly 1", got)
	}

	// Past the window a new anomaly is allowed one more pull.
	time.Sleep(resyncRateWindow + 50*time.Millisecond)
	if r := postBatch(t, s, reg, IndexBatch{Gen: 1, Digest: "!!!still-garbage!!!"}); r.Accepted != 1 {
		t.Fatalf("post-window batch: %+v", r)
	}
	deadline = time.Now().Add(time.Second)
	for resyncs.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if got := resyncs.Load(); got != 2 {
		t.Fatalf("resync pulls after window = %d, want exactly 2", got)
	}
	if pulls := s.Snapshot().IndexResyncPulls; pulls != 2 {
		t.Fatalf("IndexResyncPulls = %d, want 2", pulls)
	}
}

// benchDigestSetup builds a proxy holding docs index entries for one client
// and the matching base64 digest, so every comparison walks the full set and
// lands on "no drift".
func benchDigestSetup(b *testing.B, docs int) (*Server, int, string) {
	b.Helper()
	cfg := DefaultConfig()
	cfg.KeyBits = 1024
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	const client = 7
	f, err := bloom.NewFilterForFPR(docs, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < docs; i++ {
		u := fmt.Sprintf("http://bench.example/doc/%05d", i)
		s.idx.Add(index.Entry{Client: client, Doc: s.syms.Intern(u), Size: 1024, Version: 1})
		f.Add(u)
	}
	raw, err := f.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	return s, client, base64.StdEncoding.EncodeToString(raw)
}

// BenchmarkDigestCompare measures one digest comparison over a 2048-doc
// directory. "pooled" is the live path (per-client scratch filter reused
// across batches); "fresh" allocates the comparison filter every time, the
// behavior the pool replaced — the allocs/op gap is the point.
func BenchmarkDigestCompare(b *testing.B) {
	b.Run("pooled", func(b *testing.B) {
		s, client, digest := benchDigestSetup(b, 2048)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if s.digestMismatch(client, digest) {
				b.Fatal("unexpected drift")
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		s, client, digest := benchDigestSetup(b, 2048)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			raw, err := base64.StdEncoding.DecodeString(digest)
			if err != nil {
				b.Fatal(err)
			}
			theirs, err := bloom.UnmarshalFilter(raw)
			if err != nil {
				b.Fatal(err)
			}
			ours, err := bloom.NewFilter(theirs.Bits(), theirs.K())
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range s.idx.ClientDocs(client) {
				ours.Add(s.syms.String(e.Doc))
			}
			if !ours.Equal(theirs) {
				b.Fatal("unexpected drift")
			}
		}
	})
}
