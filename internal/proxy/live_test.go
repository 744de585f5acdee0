package proxy

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"baps/internal/integrity"
	"baps/internal/origin"
)

// TestCoalescedFetchSingleOrigin: N concurrent /fetch misses for one cold
// URL cost exactly one origin request; every caller gets the correct body
// and a verifying watermark, and the followers are counted as coalesced.
func TestCoalescedFetchSingleOrigin(t *testing.T) {
	o := origin.New(7)
	release := make(chan struct{})
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // hold the leader at the origin until all followers attach
		o.Handler().ServeHTTP(w, r)
	}))
	defer gate.Close()

	s := testServer(t, nil)
	reg := register(t, s, "http://127.0.0.1:1")
	u := gate.URL + "/coalesce/doc?size=5000"
	want := o.Body("/coalesce/doc", 0, 5000)

	const n = 12
	var wg sync.WaitGroup
	type reply struct {
		body []byte
		mark string
		code int
	}
	replies := make(chan reply, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := registeredGet(s, reg, u)
			if err != nil {
				t.Errorf("fetch: %v", err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			replies <- reply{body: body, mark: resp.Header.Get(HeaderWatermark), code: resp.StatusCode}
		}()
	}
	// All n requests must be inside the proxy (one at the gated origin,
	// the rest attached to its flight) before the origin answers.
	time.Sleep(300 * time.Millisecond)
	close(release)
	wg.Wait()
	close(replies)

	pub := proxyPublicKey(t, s)
	for r := range replies {
		if r.code != http.StatusOK {
			t.Fatalf("status %d", r.code)
		}
		if !bytes.Equal(r.body, want) {
			t.Fatalf("wrong body (%d bytes)", len(r.body))
		}
		mark, err := base64.StdEncoding.DecodeString(r.mark)
		if err != nil {
			t.Fatal(err)
		}
		if err := integrity.Verify(pub, r.body, mark); err != nil {
			t.Fatalf("watermark: %v", err)
		}
	}
	if got := o.Fetches(); got != 1 {
		t.Fatalf("origin served %d requests for %d concurrent misses, want 1", got, n)
	}
	if got := s.m.coalesced.Sum(); got != n-1 {
		t.Fatalf("coalesced = %d, want %d", got, n-1)
	}
}

// TestCoalescedLeaderFailureDoesNotPoison: the leader's origin attempt fails
// terminally (500, zero retries), but attached followers re-resolve on their
// own instead of inheriting the error.
func TestCoalescedLeaderFailureDoesNotPoison(t *testing.T) {
	var fetches atomic.Int64
	release := make(chan struct{})
	o := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fetches.Add(1) == 1 {
			<-release // hold the doomed leader until followers attach
			http.Error(w, "transient origin failure", http.StatusInternalServerError)
			return
		}
		w.Header().Set("X-Origin-Version", "0")
		w.Write([]byte("recovered body"))
	}))
	defer o.Close()

	s := testServer(t, func(c *Config) { c.OriginRetries = 0 })
	u := o.URL + "/flaky"

	const n = 8
	var wg sync.WaitGroup
	var ok, failed atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u))
			if err != nil {
				t.Errorf("fetch: %v", err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusOK && string(body) == "recovered body":
				ok.Add(1)
			default:
				failed.Add(1)
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(release)
	wg.Wait()

	// Exactly one request (the leader that ran the failing attempt) may
	// surface the 502; every follower must recover.
	if ok.Load() != n-1 || failed.Load() != 1 {
		t.Fatalf("ok=%d failed=%d, want %d/1", ok.Load(), failed.Load(), n-1)
	}
	if f := fetches.Load(); f < 2 {
		t.Fatalf("origin saw %d requests, want the failed one plus at least one retry", f)
	}
}

// TestDocTooLargeRejected: bodies past the size cap are refused with a
// distinct error (and metric), never truncated — on both the known-length
// and the chunked (unknown-length) read paths.
func TestDocTooLargeRejected(t *testing.T) {
	old := maxDocBytes
	maxDocBytes = 4096
	defer func() { maxDocBytes = old }()

	o := origin.New(3)
	ots := httptest.NewServer(o.Handler())
	defer ots.Close()
	chunked := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Flushing before the handler returns forces chunked encoding:
		// the proxy sees ContentLength -1 and must cap while reading.
		f := w.(http.Flusher)
		chunk := bytes.Repeat([]byte("x"), 1024)
		for i := 0; i < 8; i++ {
			w.Write(chunk)
			f.Flush()
		}
	}))
	defer chunked.Close()

	s := testServer(t, nil)
	for name, u := range map[string]string{
		"content-length": ots.URL + "/big/doc?size=8192",
		"chunked":        chunked.URL + "/big-chunked",
	} {
		resp, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("%s: status %d, want 502", name, resp.StatusCode)
		}
		if !strings.Contains(string(msg), "exceeds max size") {
			t.Fatalf("%s: error %q lacks size-cap cause", name, msg)
		}
	}
	if got := s.m.docTooLarge.Value(); got != 2 {
		t.Fatalf("doc_too_large = %d, want 2", got)
	}
	// An in-cap document still flows.
	resp, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(ots.URL+"/small/doc?size=1000"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-cap doc: status %d", resp.StatusCode)
	}
}

// TestDirectForwardStreamedDelivery: a holder's relay push streams through
// the proxy to the requester — the full body arrives intact with the
// holder-supplied watermark, the push is acknowledged only after the
// requester consumed the stream, and the document never enters the proxy
// cache.
func TestDirectForwardStreamedDelivery(t *testing.T) {
	s := testServer(t, func(c *Config) { c.Forward = DirectForward })

	body := bytes.Repeat([]byte("streamed direct-forward payload "), 64<<10) // 2 MiB
	mark, err := proxySigner(t, s).Watermark(body)
	if err != nil {
		t.Fatal(err)
	}
	pushStatus := make(chan int, 1)
	reg := fakePeer(t, s, func(w http.ResponseWriter, r *http.Request) {
		var ps PeerSend
		if err := json.NewDecoder(r.Body).Decode(&ps); err != nil {
			t.Errorf("decode send: %v", err)
			return
		}
		req, _ := http.NewRequest(http.MethodPost, ps.RelayURL, bytes.NewReader(body))
		req.Header.Set(HeaderVersion, "0")
		req.Header.Set(HeaderWatermark, base64.StdEncoding.EncodeToString(mark))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("push: %v", err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		pushStatus <- resp.StatusCode
		w.WriteHeader(http.StatusOK)
	})
	u := "http://origin.invalid/streamed"
	s.Index().Add(indexEntryFor(s, reg.ClientID, u, int64(len(body))))

	resp, err := registeredGet(s, register(t, s, "http://127.0.0.1:1"), u)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(HeaderSource) != SourceRemote {
		t.Fatalf("status %d source %q", resp.StatusCode, resp.Header.Get(HeaderSource))
	}
	if resp.Header.Get("X-BAPS-Ticket") == "" {
		t.Fatal("no ticket on direct-forward delivery")
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("body corrupted in streaming relay (%d bytes, want %d)", len(got), len(body))
	}
	wm, err := base64.StdEncoding.DecodeString(resp.Header.Get(HeaderWatermark))
	if err != nil {
		t.Fatal(err)
	}
	if err := integrity.Verify(proxyPublicKey(t, s), got, wm); err != nil {
		t.Fatalf("watermark: %v", err)
	}
	select {
	case code := <-pushStatus:
		if code != http.StatusNoContent {
			t.Fatalf("holder push acknowledged with %d, want 204", code)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("holder push never acknowledged")
	}
	// Direct-forward bodies bypass the proxy cache entirely.
	if _, _, cached := s.cacheLookup(u); cached {
		t.Fatal("streamed relay body leaked into the proxy cache")
	}
	if errs := s.m.relayStreamErrors.Value(); errs != 0 {
		t.Fatalf("relay stream errors = %d", errs)
	}
}

// BenchmarkLiveFetchHot drives the full HTTP path against a warm proxy
// cache: handler, auth-less fetch, serveLocal, serveDoc.
func BenchmarkLiveFetchHot(b *testing.B) {
	cfg := DefaultConfig()
	cfg.KeyBits = 1024
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Start(""); err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	o := origin.New(5)
	ots := httptest.NewServer(o.Handler())
	defer ots.Close()
	u := s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(ots.URL+"/hot/doc?size=16384")
	// Prime the cache.
	resp, err := http.Get(u)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	client := &http.Client{Transport: NewTransport(OriginIdleConnsPerHost)}
	b.SetBytes(16384)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := client.Get(u)
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
	// Off the clock before the deferred tear-down (see benchOriginMisses).
	b.StopTimer()
}

// BenchmarkServerStartAnonymous is a proxy's whole life for anonymous
// clients at the default key size: New, Start, one origin miss, Close.
// Nothing demands the watermark key, so no key is generated (keygens/op).
func BenchmarkServerStartAnonymous(b *testing.B) {
	ots := httptest.NewServer(origin.New(8).Handler())
	defer ots.Close()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	var gens int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := New(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Start(""); err != nil {
			b.Fatal(err)
		}
		resp, err := client.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(ots.URL+"/start/doc?size=8192"))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if src := resp.Header.Get(HeaderSource); src != SourceOrigin {
			b.Fatalf("served from %q, want an origin miss", src)
		}
		gens += keyGenerations(s)
		s.Close()
	}
	b.ReportMetric(float64(gens)/float64(b.N), "keygens/op")
}

// benchOriginMisses drives b.N parallel /fetch requests, each an origin miss,
// through a proxy with the production key size. docs > 0 cycles over that
// many 8 KiB documents through a cache too small to keep any of them until
// its next turn (every one is fetched once, untimed, first); docs == 0 makes
// every request a never-seen URL. registered sends the requests as a
// registered client, which is what makes the proxy derive a watermark.
func benchOriginMisses(b *testing.B, registered bool, docs int) {
	cfg := DefaultConfig()
	cfg.CacheCapacity = 1 << 30
	if docs > 0 {
		cfg.CacheCapacity = 64 << 10
	}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Start(""); err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	o := origin.New(6)
	ots := httptest.NewServer(o.Handler())
	defer ots.Close()

	client := &http.Client{Transport: NewTransport(OriginIdleConnsPerHost)}
	var reg RegisterResponse
	if registered {
		reg = register(b, s, "http://127.0.0.1:1")
	}
	fetch := func(n int64) error {
		if docs > 0 {
			n %= int64(docs)
		}
		u := s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(fmt.Sprintf("%s/miss/%d?size=8192", ots.URL, n))
		req, err := http.NewRequest(http.MethodGet, u, nil)
		if err != nil {
			return err
		}
		if registered {
			req.Header.Set(HeaderClient, fmt.Sprint(reg.ClientID))
			req.Header.Set(HeaderToken, reg.Token)
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.Header.Get(HeaderSource) != SourceOrigin {
			return fmt.Errorf("request %d served from %q, want an origin miss", n, resp.Header.Get(HeaderSource))
		}
		return nil
	}
	for n := 0; n < docs; n++ {
		if err := fetch(int64(n)); err != nil {
			b.Fatal(err)
		}
	}
	signedBefore := s.Snapshot().WatermarkSigned

	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := fetch(seq.Add(1)); err != nil {
				b.Error(err)
				return
			}
		}
	})
	// Off the clock before the deferred tear-down: s.Close can sit out its
	// 2 s drain budget on a connection the client dialed but never used,
	// which at this b.N would swamp the one signature being measured.
	b.StopTimer()
	b.ReportMetric(float64(s.Snapshot().WatermarkSigned-signedBefore)/float64(b.N), "signs/op")
}

// BenchmarkLiveFetchOriginMiss drives cold misses (unique URL per request)
// from an anonymous client through the full acquisition pipeline: origin
// round trip, single-pass digest, cache insert. No watermark is derived.
func BenchmarkLiveFetchOriginMiss(b *testing.B) { benchOriginMisses(b, false, 0) }

// BenchmarkLiveFetchOriginMissRegistered is the same stream from a
// registered client: every body is new, so every response costs the one
// unavoidable signature.
func BenchmarkLiveFetchOriginMissRegistered(b *testing.B) { benchOriginMisses(b, true, 0) }

// BenchmarkLiveFetchRefetchRegistered re-acquires evicted documents for a
// registered client: still an origin round trip each, but the watermark is
// a memo hit.
func BenchmarkLiveFetchRefetchRegistered(b *testing.B) { benchOriginMisses(b, true, 256) }
