package proxy

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	resp, err := registeredGet(s, register(t, s, "http://127.0.0.1:1"), u)
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

// relayHolder registers a scripted direct-forward holder: it answers a
// /peer/send by posting body to the relay URL pushes times in a row, and
// reports the relay URL and each push's status.
func relayHolder(t *testing.T, s *Server, body string, pushes int) (RegisterResponse, <-chan string, <-chan int) {
	relayURLs, codes := make(chan string, 1), make(chan int, pushes)
	reg := fakePeer(t, s, func(w http.ResponseWriter, r *http.Request) {
		var ps PeerSend
		if err := json.NewDecoder(r.Body).Decode(&ps); err != nil {
			t.Errorf("decode send: %v", err)
			return
		}
		relayURLs <- ps.RelayURL
		for i := 0; i < pushes; i++ {
			codes <- pushRelay(t, ps.RelayURL, body)
		}
		w.WriteHeader(http.StatusOK)
	})
	return reg, relayURLs, codes
}

// pushRelay posts body to a relay URL as a holder would and returns the
// status of the reply.
func pushRelay(t *testing.T, relayURL, body string) int {
	resp, err := http.Post(relayURL, "application/octet-stream", strings.NewReader(body))
	if err != nil {
		t.Errorf("push: %v", err)
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestRelaySessionContract pins the direct-forward relay session: a ticket
// takes one push, and only while the /fetch that issued it waits; any other
// push is refused; and a /report-bad naming a delivered ticket prunes and
// charges the holder behind it and no other.
func TestRelaySessionContract(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("origin copy"))
	}))
	defer origin.Close()
	direct := func(t *testing.T) *Server {
		return testServer(t, func(c *Config) {
			c.Forward = DirectForward
			c.PeerTimeout = 300 * time.Millisecond
		})
	}
	// get fetches u as a fresh registered client and returns the response
	// headers and body.
	get := func(t *testing.T, s *Server, u string) (http.Header, string) {
		resp, err := registeredGet(s, register(t, s, "http://127.0.0.1:1"), u)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.Header, string(body)
	}
	u := origin.URL + "/doc"

	t.Run("second push to a delivered ticket", func(t *testing.T) {
		s := direct(t)
		reg, _, codes := relayHolder(t, s, "holder copy", 2)
		s.Index().Add(indexEntryFor(s, reg.ClientID, u, 11))
		if hdr, body := get(t, s, u); hdr.Get(HeaderSource) != SourceRemote || body != "holder copy" {
			t.Fatalf("source = %q body = %q, want the holder's push", hdr.Get(HeaderSource), body)
		}
		if first, second := <-codes, <-codes; first != http.StatusNoContent || second != http.StatusForbidden {
			t.Fatalf("push statuses %d, %d; want 204 then 403", first, second)
		}
	})

	t.Run("push after the session timed out", func(t *testing.T) {
		s := direct(t)
		reg, relayURLs, _ := relayHolder(t, s, "late copy", 0)
		s.Index().Add(indexEntryFor(s, reg.ClientID, u, 9))
		if hdr, body := get(t, s, u); hdr.Get(HeaderSource) != SourceOrigin || body != "origin copy" {
			t.Fatalf("source = %q body = %q, want the origin copy", hdr.Get(HeaderSource), body)
		}
		if code := pushRelay(t, <-relayURLs, "late copy"); code != http.StatusForbidden {
			t.Fatalf("late push status %d, want 403", code)
		}
		if st := s.Snapshot(); st.RelayTimeouts != 1 || st.RemoteHits != 0 || s.m.relayStreamErrors.Value() != 0 {
			t.Fatalf("relay_timeouts = %d remote_hits = %d stream errors = %d, want 1/0/0",
				st.RelayTimeouts, st.RemoteHits, s.m.relayStreamErrors.Value())
		}
	})

	t.Run("push to an unknown ticket", func(t *testing.T) {
		s := direct(t)
		if code := pushRelay(t, s.BaseURL()+"/relay/no-such-ticket", "x"); code != http.StatusForbidden {
			t.Fatalf("unknown ticket push status %d, want 403", code)
		}
	})

	t.Run("report names the delivered holder", func(t *testing.T) {
		s := direct(t)
		regA, sentA, _ := relayHolder(t, s, "tampered", 1)
		regB, _, _ := relayHolder(t, s, "tampered", 1)
		s.Index().Add(indexEntryFor(s, regA.ClientID, u, 8))
		s.Index().Add(indexEntryFor(s, regB.ClientID, u, 8))
		requester := register(t, s, "http://127.0.0.1:2")
		resp, err := registeredGet(s, requester, u)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ticket := resp.Header.Get("X-BAPS-Ticket")
		if resp.Header.Get(HeaderSource) != SourceRemote || ticket == "" {
			t.Fatalf("source = %q ticket = %q, want a direct-forward delivery", resp.Header.Get(HeaderSource), ticket)
		}
		served, spared := regB.ClientID, regA.ClientID
		select {
		case <-sentA:
			served, spared = regA.ClientID, regB.ClientID
		default:
		}
		if code := reportBad(t, s, requester, u, ticket); code != http.StatusNoContent {
			t.Fatalf("report status %d, want 204", code)
		}
		doc := s.syms.Intern(u)
		if s.Index().Has(served, doc) || !s.Index().Has(spared, doc) {
			t.Fatalf("after the report: served holder indexed %v, other holder indexed %v; want false/true",
				s.Index().Has(served, doc), s.Index().Has(spared, doc))
		}
		st := s.Snapshot()
		if st.TamperRejected != 1 {
			t.Fatalf("watermark_rejected = %d, want 1", st.TamperRejected)
		}
		for _, ph := range st.PeerHealth {
			want := int64(0)
			if ph.Client == served {
				want = 1
			}
			if (ph.Client == served || ph.Client == spared) && ph.Failures != want {
				t.Fatalf("client %d failures = %d, want %d", ph.Client, ph.Failures, want)
			}
		}
	})
}

// reportBad files a /report-bad for url and ticket as the registered client
// reg and returns the reply's status.
func reportBad(t *testing.T, s *Server, reg RegisterResponse, url, ticket string) int {
	t.Helper()
	rep, _ := json.Marshal(BadContentReport{ClientID: reg.ClientID, URL: url, Ticket: ticket})
	req, err := http.NewRequest(http.MethodPost, s.BaseURL()+"/report-bad", bytes.NewReader(rep))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderClient, strconv.Itoa(reg.ClientID))
	req.Header.Set(HeaderToken, reg.Token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestAnonymousRequesterTakesFetchForward: an anonymous requester cannot
// verify a watermark, so in every forwarding mode it is served fetch-forward,
// the one delivery whose body the proxy checks. Under onion-forward the
// holder is fetched, not sent an onion, and its breaker stays closed; under
// direct-forward a tampering holder is caught at the proxy and the client
// gets the origin's bytes.
func TestAnonymousRequesterTakesFetchForward(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("origin copy"))
	}))
	defer origin.Close()
	anonGet := func(t *testing.T, s *Server, u string) (string, string) {
		resp, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		return resp.Header.Get(HeaderSource), string(body)
	}

	t.Run("onion", func(t *testing.T) {
		s := testServer(t, func(c *Config) {
			c.Forward = OnionForward
			c.BreakerThreshold = 1
		})
		good := []byte("holder copy")
		mark, err := proxySigner(t, s).Watermark(good)
		if err != nil {
			t.Fatal(err)
		}
		var onionSends atomic.Int64
		mux := http.NewServeMux()
		mux.HandleFunc("/peer/onion-send", func(w http.ResponseWriter, r *http.Request) {
			onionSends.Add(1)
			io.Copy(io.Discard, r.Body)
			w.WriteHeader(http.StatusOK)
		})
		mux.HandleFunc("/peer/doc", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(HeaderWatermark, base64.StdEncoding.EncodeToString(mark))
			w.Header().Set(HeaderVersion, "0")
			w.Write(good)
		})
		holderTS := httptest.NewServer(mux)
		defer holderTS.Close()
		holder := register(t, s, holderTS.URL)
		u := origin.URL + "/onion-doc"
		s.Index().Add(indexEntryFor(s, holder.ClientID, u, int64(len(good))))

		if src, body := anonGet(t, s, u); src != SourceRemote || body != string(good) {
			t.Fatalf("source = %q body = %q, want the holder's copy", src, body)
		}
		st := s.Snapshot()
		if st.RemoteHits != 1 || st.FalsePeerHits != 0 || st.BreakerOpen != 0 || st.BreakerTrips != 0 {
			t.Fatalf("remote_hits = %d false_peer_hits = %d breaker_open = %d breaker_trips = %d, want 1/0/0/0",
				st.RemoteHits, st.FalsePeerHits, st.BreakerOpen, st.BreakerTrips)
		}
		if n := onionSends.Load(); n != 0 {
			t.Fatalf("%d /peer/onion-send calls for an anonymous requester, want 0", n)
		}
	})

	t.Run("direct tamper", func(t *testing.T) {
		s := testServer(t, func(c *Config) { c.Forward = DirectForward })
		const tampered = "tampered copy"
		// The holder alters whatever it serves: a /peer/doc body or a push.
		holder := fakePeer(t, s, func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/peer/doc" {
				w.Write([]byte(tampered))
				return
			}
			var ps PeerSend
			if err := json.NewDecoder(r.Body).Decode(&ps); err != nil {
				t.Errorf("decode send: %v", err)
				return
			}
			pushRelay(t, ps.RelayURL, tampered)
			w.WriteHeader(http.StatusOK)
		})
		u := origin.URL + "/direct-doc"
		s.Index().Add(indexEntryFor(s, holder.ClientID, u, int64(len(tampered))))

		if src, body := anonGet(t, s, u); src != SourceOrigin || body != "origin copy" {
			t.Fatalf("source = %q body = %q, want the origin copy", src, body)
		}
		if s.Index().Has(holder.ClientID, s.syms.Intern(u)) {
			t.Fatal("tampering holder still indexed")
		}
		if st := s.Snapshot(); st.TamperRejected != 1 {
			t.Fatalf("watermark_rejected = %d, want 1", st.TamperRejected)
		}
	})
}

// TestUnattributedReportPrunesNothing: a /report-bad whose ticket names no
// delivered relay session (fetch-forward responses carry no ticket, so
// their rejections arrive with an empty one) is counted but prunes and
// charges no holder: the proxy cannot tell who served the bytes.
func TestUnattributedReportPrunesNothing(t *testing.T) {
	s := testServer(t, nil)
	holders := []RegisterResponse{register(t, s, "http://127.0.0.1:1"), register(t, s, "http://127.0.0.1:2")}
	requester := register(t, s, "http://127.0.0.1:3")
	u := "http://origin.invalid/reported"
	for _, h := range holders {
		s.Index().Add(indexEntryFor(s, h.ClientID, u, 10))
	}
	for _, ticket := range []string{"", "no-such-ticket"} {
		if code := reportBad(t, s, requester, u, ticket); code != http.StatusNoContent {
			t.Fatalf("report with ticket %q: status %d, want 204", ticket, code)
		}
	}
	for _, h := range holders {
		if !s.Index().Has(h.ClientID, s.syms.Intern(u)) {
			t.Fatalf("holder %d pruned by an unattributed report", h.ClientID)
		}
	}
	st := s.Snapshot()
	if st.TamperRejected != 2 {
		t.Fatalf("watermark_rejected = %d, want 2", st.TamperRejected)
	}
	for _, ph := range st.PeerHealth {
		if ph.Failures != 0 {
			t.Fatalf("client %d charged %d failures by an unattributed report", ph.Client, ph.Failures)
		}
	}
}
