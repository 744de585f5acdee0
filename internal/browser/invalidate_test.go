package browser

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"baps/internal/proxy"
)

// peerGet performs an authenticated GET /peer/doc against a's peer server
// handler (direct dispatch, so it works even mid-shutdown).
func peerGet(a *Agent, docURL string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, "/peer/doc?url="+url.QueryEscape(docURL), nil)
	req.Header.Set(proxy.HeaderToken, a.token)
	rec := httptest.NewRecorder()
	a.handlePeerDoc(rec, req)
	return rec
}

func invalidatePost(t *testing.T, a *Agent, docURL string, version int64) {
	t.Helper()
	body, _ := json.Marshal(proxy.InvalidateRequest{URL: docURL, Version: version})
	req, _ := http.NewRequest(http.MethodPost, a.PeerURL()+"/cache/invalidate", bytes.NewReader(body))
	req.Header.Set(proxy.HeaderToken, a.token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("invalidate status %d", resp.StatusCode)
	}
}

// TestInvalidatedDocNeverServedToPeers: the regression the tombstone plane
// exists for. After a /cache/invalidate, the agent must not serve the doc
// with its (still cryptographically valid) watermark — not from the live
// handler, and not even if a racing stale delivery tries to re-store it.
func TestInvalidatedDocNeverServedToPeers(t *testing.T) {
	c := startCluster(t, 1, proxy.Config{}, nil)
	a := c.agents[0]
	u := c.url("/inval/doc")

	body, _, err := a.Get(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	if rec := peerGet(a, u); rec.Code != http.StatusOK {
		t.Fatalf("pre-invalidate peer serve: %d", rec.Code)
	}
	a.mu.Lock()
	mark := a.docs[u]
	a.mu.Unlock()

	invalidatePost(t, a, u, mark.version+1)
	if a.HasCached(u) {
		t.Fatal("invalidated doc still cached")
	}
	if rec := peerGet(a, u); rec.Code == http.StatusOK {
		t.Fatalf("invalidated doc served to a peer (status %d)", rec.Code)
	}

	// A stale delivery racing the invalidation must not resurrect it.
	a.store(u, body, mark.watermark, mark.version)
	if a.HasCached(u) {
		t.Fatal("stale re-store resurrected an invalidated doc")
	}
	if rec := peerGet(a, u); rec.Code == http.StatusOK {
		t.Fatal("resurrected stale doc served to a peer")
	}

	// A copy at the announced version clears the tombstone.
	a.store(u, body, mark.watermark, mark.version+1)
	if !a.HasCached(u) {
		t.Fatal("current-version store refused after invalidation")
	}
	if rec := peerGet(a, u); rec.Code != http.StatusOK {
		t.Fatalf("current-version peer serve: %d", rec.Code)
	}
	if a.Snapshot().Invalidations != 1 {
		t.Fatalf("invalidations metric = %d, want 1", a.Snapshot().Invalidations)
	}
}

// TestNoPeerServeAfterClose: once Close has begun, the peer handlers
// refuse — the graceful-shutdown window must not hand out watermarked
// bodies the proxy may just have invalidated.
func TestNoPeerServeAfterClose(t *testing.T) {
	c := startCluster(t, 1, proxy.Config{}, nil)
	a := c.agents[0]
	u := c.url("/close/doc")
	if _, _, err := a.Get(context.Background(), u); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if rec := peerGet(a, u); rec.Code != http.StatusGone {
		t.Fatalf("post-Close peer serve status %d, want 410", rec.Code)
	}
}

// TestCacheInvalidateAuthAndValidation: the invalidate endpoint requires
// the registration token and a well-formed body.
func TestCacheInvalidateAuthAndValidation(t *testing.T) {
	c := startCluster(t, 1, proxy.Config{}, nil)
	a := c.agents[0]

	resp, err := http.Post(a.PeerURL()+"/cache/invalidate", "application/json",
		strings.NewReader(`{"url":"http://x/a","version":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("tokenless invalidate: %d, want 403", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodPost, a.PeerURL()+"/cache/invalidate", strings.NewReader("{"))
	req.Header.Set(proxy.HeaderToken, a.token)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed invalidate: %d, want 400", resp.StatusCode)
	}
}

// TestInvalidationEndToEnd: a modification observed by the proxy's
// revalidator reaches the browser — the stale local copy disappears and
// the next Get returns the new content.
func TestInvalidationEndToEnd(t *testing.T) {
	pcfg := proxy.DefaultConfig()
	pcfg.KeyBits = 1024
	pcfg.CacheCapacity = 1 << 20
	pcfg.RevalidateAfter = 60 * time.Millisecond
	pcfg.RevalidateEvery = 20 * time.Millisecond
	c := startCluster(t, 1, pcfg, nil)
	a := c.agents[0]
	u := c.url("/e2e/doc")

	// The proxy invalidates the holders its index knows, so the holding
	// must be published before the modification is observed.
	body0 := getFlushed(t, a, u)
	c.origin.Modify("/e2e/doc")

	deadline := time.Now().Add(5 * time.Second)
	for a.HasCached(u) {
		if time.Now().After(deadline) {
			t.Fatal("stale copy never invalidated")
		}
		time.Sleep(10 * time.Millisecond)
	}
	body1, _, err := a.Get(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(body0, body1) {
		t.Fatal("post-invalidation Get returned the stale body")
	}
	if a.Snapshot().Invalidations < 1 {
		t.Fatal("invalidations metric not counted")
	}
}
