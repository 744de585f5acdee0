package proxy

import (
	"encoding/base64"
	"io"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"sync"
	"testing"
	"time"

	"baps/internal/index"
)

// fakePeer registers a scripted peer server with the proxy: it accepts
// /peer/send instructions but never delivers to the relay — a crashed or
// malicious holder.
func fakePeer(t *testing.T, s *Server, behave func(w http.ResponseWriter, r *http.Request)) RegisterResponse {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/peer/send", behave)
	mux.HandleFunc("/peer/doc", behave)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return register(t, s, ts.URL)
}

func TestRelayTimeoutFallsThroughToUpstream(t *testing.T) {
	// Origin for the fallback.
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("authentic body"))
	}))
	defer origin.Close()

	s := testServer(t, func(c *Config) {
		c.Forward = DirectForward
		c.PeerTimeout = 300 * time.Millisecond
	})
	// A holder that ACKs the send instruction but never pushes.
	reg := fakePeer(t, s, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusOK)
	})
	u := origin.URL + "/doc"
	s.Index().Add(indexEntryFor(s, reg.ClientID, u, 14))

	start := time.Now()
	resp, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get(HeaderSource) != SourceOrigin {
		t.Fatalf("source = %q, want origin after relay timeout", resp.Header.Get(HeaderSource))
	}
	if string(body) != "authentic body" {
		t.Fatalf("body = %q", body)
	}
	if elapsed := time.Since(start); elapsed < 250*time.Millisecond {
		t.Fatalf("returned in %v — relay timeout not awaited", elapsed)
	}
	st := s.Snapshot()
	if st.RelayTimeouts != 1 || st.FalsePeerHits != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// The dead holder was pruned.
	if s.Index().Has(reg.ClientID, s.syms.Intern(u)) {
		t.Fatal("dead holder still indexed")
	}
}

func TestPeerRefusalPrunesAndFallsThrough(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("origin copy"))
	}))
	defer origin.Close()

	s := testServer(t, func(c *Config) { c.Forward = FetchForward })
	// A holder that 404s every peer fetch (evicted the doc, stale index).
	reg := fakePeer(t, s, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "not cached", http.StatusNotFound)
	})
	u := origin.URL + "/doc2"
	s.Index().Add(indexEntryFor(s, reg.ClientID, u, 11))

	resp, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get(HeaderSource) != SourceOrigin {
		t.Fatalf("source = %q", resp.Header.Get(HeaderSource))
	}
	if s.Snapshot().FalsePeerHits != 1 {
		t.Fatalf("false peer hits: %+v", s.Snapshot())
	}
	if s.Index().Has(reg.ClientID, s.syms.Intern(u)) {
		t.Fatal("refusing holder still indexed")
	}
}

func TestDepartedPeerPruned(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("x"))
	}))
	defer origin.Close()
	s := testServer(t, nil)
	u := origin.URL + "/gone"
	// Index entry for a client id that never registered.
	s.Index().Add(indexEntryFor(s, 999, u, 1))
	resp, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if s.Index().Has(999, s.syms.Intern(u)) {
		t.Fatal("unregistered holder still indexed")
	}
}

func indexEntryFor(s *Server, client int, url string, size int64) index.Entry {
	return index.Entry{Client: client, Doc: s.syms.Intern(url), Size: size}
}

// TestUpstreamCoalescing: concurrent misses for the same cold document cost
// one origin round trip.
func TestUpstreamCoalescing(t *testing.T) {
	var fetches int64
	var fetchMu sync.Mutex
	release := make(chan struct{})
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fetchMu.Lock()
		fetches++
		fetchMu.Unlock()
		<-release // hold all concurrent fetchers at the origin
		w.Write([]byte("slow body"))
	}))
	defer origin.Close()

	s := testServer(t, nil)
	u := origin.URL + "/cold"
	const n = 8
	var wg sync.WaitGroup
	results := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u))
			if err != nil {
				results <- "err"
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			results <- string(body)
		}()
	}
	// Give the goroutines a moment to pile up, then release the origin.
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()
	close(results)
	for r := range results {
		if r != "slow body" {
			t.Fatalf("bad result %q", r)
		}
	}
	fetchMu.Lock()
	defer fetchMu.Unlock()
	if fetches != 1 {
		t.Fatalf("origin fetched %d times for %d concurrent requests, want 1", fetches, n)
	}
}

// TestPeerBodyWithoutProxyRecord exercises the proxy-restart path of
// fetchFromPeer: the proxy has no digest record for the document, so it
// accepts the holder's stored watermark only if it verifies under the
// proxy's own key — which a forger cannot produce.
func TestPeerBodyWithoutProxyRecord(t *testing.T) {
	s := testServer(t, func(c *Config) { c.Forward = FetchForward })

	goodBody := []byte("the authentic document body")
	mark, err := proxySigner(t, s).Watermark(goodBody)
	if err != nil {
		t.Fatal(err)
	}
	markB64 := base64.StdEncoding.EncodeToString(mark)

	// Holder 1 serves the body with the valid watermark.
	regGood := fakePeer(t, s, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderWatermark, markB64)
		w.Header().Set(HeaderVersion, "0")
		w.Write(goodBody)
	})
	u := "http://origin.invalid/never-fetched"
	s.Index().Add(indexEntryFor(s, regGood.ClientID, u, int64(len(goodBody))))

	resp, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get(HeaderSource) != SourceRemote {
		t.Fatalf("source = %q, want remote (valid stored watermark)", resp.Header.Get(HeaderSource))
	}
	if string(body) != string(goodBody) {
		t.Fatalf("body = %q", body)
	}

	// Holder 2 serves a forged body with a bogus watermark for a second
	// URL; the origin is unreachable, so the fetch must fail outright —
	// never serve unverifiable peer content.
	regBad := fakePeer(t, s, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderWatermark, base64.StdEncoding.EncodeToString([]byte("forged")))
		w.Header().Set(HeaderVersion, "0")
		w.Write([]byte("malicious content"))
	})
	u2 := "http://127.0.0.1:1/unreachable"
	s.Index().Add(indexEntryFor(s, regBad.ClientID, u2, int64(len("malicious content"))))
	resp2, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u2))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadGateway {
		t.Fatalf("forged content served: status %d", resp2.StatusCode)
	}
	if s.Snapshot().TamperRejected == 0 {
		t.Fatal("tamper not recorded")
	}
	if s.Index().Has(regBad.ClientID, s.syms.Intern(u2)) {
		t.Fatal("forging holder still indexed")
	}
}
