package proxy

import (
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"baps/internal/integrity"
	"baps/internal/origin"
)

// pollUntil spins until cond is true or the deadline lapses.
func pollUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetchVersion GETs url through s and returns the response version header.
func fetchVersion(t *testing.T, s *Server, url string) int64 {
	t.Helper()
	resp, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(url))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch status %d", resp.StatusCode)
	}
	v, _ := strconv.ParseInt(resp.Header.Get(HeaderVersion), 10, 64)
	return v
}

// TestRevalidationKeepsCacheFresh: a resident document past RevalidateAfter
// is conditionally re-checked in the background — unchanged content costs
// only 304s (never a refetch), and a modification is refetched and served
// from cache at the new version without any client-triggered origin trip.
func TestRevalidationKeepsCacheFresh(t *testing.T) {
	o := origin.New(21)
	ots := httptest.NewServer(o.Handler())
	defer ots.Close()

	s := testServer(t, func(c *Config) {
		c.RevalidateAfter = 60 * time.Millisecond
		c.RevalidateEvery = 20 * time.Millisecond
	})
	u := ots.URL + "/reval/doc?size=900"

	if v := fetchVersion(t, s, u); v != 0 {
		t.Fatalf("initial version = %d", v)
	}
	if o.Fetches() != 1 {
		t.Fatalf("origin fetches = %d, want 1", o.Fetches())
	}

	// Unchanged document: background checks arrive as 304s, never 200s.
	// The origin counts its 304 before the proxy has read it, so wait for
	// the proxy's revalidations{result=fresh} count as well.
	pollUntil(t, 3*time.Second, "first 304 revalidation counted as fresh", func() bool {
		return o.NotModified() >= 1 && s.m.revalFresh.Value() >= 1
	})
	if o.Fetches() != 1 {
		t.Fatalf("revalidation of fresh doc refetched (fetches=%d)", o.Fetches())
	}

	// Modify at the origin: the pipeline must notice and replace the copy.
	newV := o.Modify("/reval/doc")
	pollUntil(t, 3*time.Second, "changed revalidation", func() bool {
		return s.m.revalChanged.Value() >= 1
	})
	// The fresh body is served from the proxy tier — no client-path origin
	// trip beyond the background refetch itself.
	fetchesAfter := o.Fetches()
	if v := fetchVersion(t, s, u); v != newV {
		t.Fatalf("served version %d after modify, want %d", v, newV)
	}
	if o.Fetches() != fetchesAfter {
		t.Fatal("client fetch hit the origin despite background refetch")
	}
	snap := s.Snapshot()
	if snap.Revalidations < 1 || snap.RevalidationsChanged < 1 {
		t.Fatalf("snapshot revalidations %d/%d", snap.Revalidations, snap.RevalidationsChanged)
	}
	if snap.Workqueue == nil || snap.Workqueue.Completed < 1 {
		t.Fatalf("snapshot workqueue stats missing or empty: %+v", snap.Workqueue)
	}
}

// browserStub is a minimal agent-side endpoint set for push/invalidate
// traffic: it records authenticated calls and answers with a fixed status.
type browserStub struct {
	mu          sync.Mutex
	token       string
	pushStatus  int
	pushes      []stubPush
	invalidates []InvalidateRequest
	srv         *httptest.Server
}

type stubPush struct {
	url     string
	version int64
	body    []byte
	mark    []byte
}

func newBrowserStub(t *testing.T) *browserStub {
	b := &browserStub{pushStatus: http.StatusNoContent}
	mux := http.NewServeMux()
	mux.HandleFunc("/cache/push", func(w http.ResponseWriter, r *http.Request) {
		b.mu.Lock()
		defer b.mu.Unlock()
		if r.Header.Get(HeaderToken) != b.token {
			http.Error(w, "bad token", http.StatusForbidden)
			return
		}
		body, _ := io.ReadAll(r.Body)
		v, _ := strconv.ParseInt(r.Header.Get(HeaderVersion), 10, 64)
		mark, _ := base64.StdEncoding.DecodeString(r.Header.Get(HeaderWatermark))
		b.pushes = append(b.pushes, stubPush{
			url: r.URL.Query().Get("url"), version: v, body: body, mark: mark,
		})
		w.WriteHeader(b.pushStatus)
	})
	mux.HandleFunc("/cache/invalidate", func(w http.ResponseWriter, r *http.Request) {
		b.mu.Lock()
		defer b.mu.Unlock()
		if r.Header.Get(HeaderToken) != b.token {
			http.Error(w, "bad token", http.StatusForbidden)
			return
		}
		var req InvalidateRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		b.invalidates = append(b.invalidates, req)
		w.WriteHeader(http.StatusNoContent)
	})
	b.srv = httptest.NewServer(mux)
	t.Cleanup(b.srv.Close)
	return b
}

// TestPrefetchPushesHotDocToIdleBrowser: repeated hits make a document hot;
// the prefetcher pushes it (authenticated, watermarked) into the registered
// browser with the emptiest cache and records the placement in the index.
func TestPrefetchPushesHotDocToIdleBrowser(t *testing.T) {
	o := origin.New(5)
	ots := httptest.NewServer(o.Handler())
	defer ots.Close()

	s := testServer(t, func(c *Config) {
		c.PrefetchInterval = 25 * time.Millisecond
		c.PrefetchMinHits = 2
	})
	stub := newBrowserStub(t)
	reg := register(t, s, stub.srv.URL)
	stub.mu.Lock()
	stub.token = reg.Token
	stub.mu.Unlock()

	u := ots.URL + "/hot/doc?size=700"
	for i := 0; i < 4; i++ {
		fetchVersion(t, s, u)
	}
	pollUntil(t, 3*time.Second, "prefetch push", func() bool {
		stub.mu.Lock()
		defer stub.mu.Unlock()
		return len(stub.pushes) >= 1
	})

	stub.mu.Lock()
	p := stub.pushes[0]
	stub.mu.Unlock()
	if p.url != u {
		t.Fatalf("pushed url %q, want %q", p.url, u)
	}
	if err := integrity.Verify(proxyPublicKey(t, s), p.body, p.mark); err != nil {
		t.Fatalf("pushed watermark does not verify: %v", err)
	}
	// The placement is immediately resolvable through the index.
	doc, known := s.syms.Lookup(u)
	if !known {
		t.Fatal("url not interned")
	}
	pollUntil(t, time.Second, "index placement", func() bool {
		return len(s.idx.Lookup(doc)) == 1
	})
	if s.Snapshot().PrefetchPushes < 1 {
		t.Fatal("prefetch_pushes not counted")
	}
}

// TestPrefetchDeclineCounted: an agent refusing a push (tombstoned or
// closing) is counted as declined, not retried into a dead letter.
func TestPrefetchDeclineCounted(t *testing.T) {
	o := origin.New(6)
	ots := httptest.NewServer(o.Handler())
	defer ots.Close()

	s := testServer(t, func(c *Config) {
		c.PrefetchInterval = 25 * time.Millisecond
		c.PrefetchMinHits = 2
	})
	stub := newBrowserStub(t)
	stub.pushStatus = http.StatusConflict
	reg := register(t, s, stub.srv.URL)
	stub.mu.Lock()
	stub.token = reg.Token
	stub.mu.Unlock()

	u := ots.URL + "/declined/doc?size=400"
	for i := 0; i < 4; i++ {
		fetchVersion(t, s, u)
	}
	pollUntil(t, 3*time.Second, "declined push", func() bool {
		return s.m.prefetchDeclined.Value() >= 1
	})
	if dl := s.wq.DeadLetters(); len(dl) != 0 {
		t.Fatalf("declined push dead-lettered: %+v", dl)
	}
}

// TestInvalidationReachesIndexedBrowser: when revalidation observes a
// modification, every indexed holder of the stale version gets an
// authenticated /cache/invalidate and its index entry is dropped.
func TestInvalidationReachesIndexedBrowser(t *testing.T) {
	o := origin.New(31)
	ots := httptest.NewServer(o.Handler())
	defer ots.Close()

	s := testServer(t, func(c *Config) {
		c.RevalidateAfter = 60 * time.Millisecond
		c.RevalidateEvery = 20 * time.Millisecond
	})
	stub := newBrowserStub(t)
	reg := register(t, s, stub.srv.URL)
	stub.mu.Lock()
	stub.token = reg.Token
	stub.mu.Unlock()

	u := ots.URL + "/inval/doc?size=600"
	fetchVersion(t, s, u)
	addIndexEntry(t, s, reg, u, 600) // the browser claims the v0 copy

	newV := o.Modify("/inval/doc")
	pollUntil(t, 3*time.Second, "browser invalidate", func() bool {
		stub.mu.Lock()
		defer stub.mu.Unlock()
		return len(stub.invalidates) >= 1
	})
	stub.mu.Lock()
	inv := stub.invalidates[0]
	stub.mu.Unlock()
	if inv.URL != u || inv.Version != newV {
		t.Fatalf("invalidate = %+v, want url=%s version=%d", inv, u, newV)
	}
	// The stale entry must be gone so no requester is routed there.
	doc, _ := s.syms.Lookup(u)
	pollUntil(t, time.Second, "index entry removal", func() bool {
		return len(s.idx.Lookup(doc)) == 0
	})
	if s.Snapshot().InvalidationsSent < 1 {
		t.Fatal("invalidations_sent not counted")
	}
}

// TestSiblingInvalidationFanout: proxy A observes a modification and
// forwards the invalidation one hop to sibling B, whose stale copy is
// purged; B then serves the new version (via cluster or origin), never the
// stale body, even though B itself runs no revalidation.
func TestSiblingInvalidationFanout(t *testing.T) {
	o := origin.New(41)
	ots := httptest.NewServer(o.Handler())
	defer ots.Close()

	mk := func(reval bool) *Server {
		return testServer(t, func(c *Config) {
			c.DigestInterval = 50 * time.Millisecond
			if reval {
				c.RevalidateAfter = 80 * time.Millisecond
				c.RevalidateEvery = 25 * time.Millisecond
			}
		})
	}
	a, b := mk(true), mk(false)
	if err := a.JoinCluster([]string{b.BaseURL()}); err != nil {
		t.Fatal(err)
	}
	if err := b.JoinCluster([]string{a.BaseURL()}); err != nil {
		t.Fatal(err)
	}

	u := ots.URL + "/sib/doc?size=1200"
	fetchVersion(t, a, u)
	waitCandidates(t, b, u)
	if v := fetchVersion(t, b, u); v != 0 {
		t.Fatalf("B initial version = %d", v)
	}
	// A must learn B holds the doc before the fan-out can target it.
	waitCandidates(t, a, u)

	newV := o.Modify("/sib/doc")
	pollUntil(t, 5*time.Second, "sibling invalidation received", func() bool {
		return b.Snapshot().InvalidationsReceived >= 1
	})
	// B's copy is purged; the next fetch resolves the fresh version.
	pollUntil(t, 5*time.Second, "B serving new version", func() bool {
		return fetchVersion(t, b, u) == newV
	})
	// A counts a sibling invalidation only once B's reply is back, which
	// can be after B has already purged and refetched.
	pollUntil(t, 5*time.Second, "A counting the invalidation it sent", func() bool {
		return a.Snapshot().InvalidationsSent >= 1
	})
}

// TestPeerInvalidateValidation: the sibling endpoint refuses non-POSTs,
// unfederated servers, malformed bodies, and senders outside the cluster.
func TestPeerInvalidateValidation(t *testing.T) {
	lone := testServer(t, nil)
	resp, err := http.Post(lone.BaseURL()+"/peer/invalidate", "application/json",
		strings.NewReader(`{"url":"http://x/a","version":1,"from":"http://nobody"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unfederated: %d, want 503", resp.StatusCode)
	}

	ps := federate(t, 2, nil)
	s := ps[0]
	if resp, err = http.Get(s.BaseURL() + "/peer/invalidate"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: %d, want 405", resp.StatusCode)
	}
	if resp, err = http.Post(s.BaseURL()+"/peer/invalidate", "application/json",
		strings.NewReader(`{`)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %d, want 400", resp.StatusCode)
	}
	if resp, err = http.Post(s.BaseURL()+"/peer/invalidate", "application/json",
		strings.NewReader(`{"url":"http://x/a","version":1,"from":"http://intruder:1"}`)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unknown sender: %d, want 403", resp.StatusCode)
	}
	if got := s.Snapshot().InvalidationsReceived; got != 0 {
		t.Fatalf("rejected requests counted as received: %d", got)
	}
}

// TestPurgeStaleVersionGuard: a purge job for version v must not delete a
// copy already at or past v (the refetch may have landed first).
func TestPurgeStaleVersionGuard(t *testing.T) {
	s := testServer(t, nil)
	s.storeDoc("http://x/guard", []byte("fresh"), docMeta{version: 3, size: 5})
	s.purgeStale("http://x/guard", 3) // same version: keep
	if _, ok := s.cache.Peek("http://x/guard"); !ok {
		t.Fatal("purge removed a copy already at the invalidation version")
	}
	s.purgeStale("http://x/guard", 4) // older than 4: purge
	if _, ok := s.cache.Peek("http://x/guard"); ok {
		t.Fatal("purge left a stale copy resident")
	}
}
