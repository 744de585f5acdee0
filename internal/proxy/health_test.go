package proxy

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"strconv"
	"sync"
	"testing"
	"time"

	"baps/internal/anonymity"
)

// fakeClock drives a healthTracker deterministically.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func newTestTracker(threshold int, cooldown time.Duration) (*healthTracker, *fakeClock) {
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	h := newHealthTracker(threshold, cooldown)
	h.now = clk.Now
	return h, clk
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	h, _ := newTestTracker(3, time.Second)
	h.Track(1)
	if h.Failure(1) || h.Failure(1) {
		t.Fatal("tripped before threshold")
	}
	if !h.Failure(1) {
		t.Fatal("third consecutive failure must trip")
	}
	if h.Allow(1) {
		t.Fatal("open breaker admitted a request")
	}
	// A success between failures resets the count.
	h.Track(2)
	h.Failure(2)
	h.Failure(2)
	h.Success(2, time.Millisecond)
	if h.Failure(2) || h.Failure(2) {
		t.Fatal("count not reset by success")
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	h, clk := newTestTracker(1, time.Second)
	h.Track(1)
	if !h.Failure(1) {
		t.Fatal("threshold 1 must trip on first failure")
	}
	if h.Allow(1) {
		t.Fatal("admitted during cooldown")
	}
	clk.Advance(time.Second + time.Millisecond)
	if !h.Allow(1) {
		t.Fatal("cooldown elapsed: probe must be admitted")
	}
	// Second caller while the probe is in flight is rejected.
	if h.Allow(1) {
		t.Fatal("second concurrent probe admitted")
	}
	// Probe success closes the breaker and reports re-admission.
	if !h.Success(1, 5*time.Millisecond) {
		t.Fatal("probe success did not report re-admission")
	}
	if !h.Allow(1) {
		t.Fatal("closed breaker must admit")
	}
	// Re-admission is not reported twice.
	if h.Success(1, time.Millisecond) {
		t.Fatal("second success reported re-admission again")
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	h, clk := newTestTracker(1, time.Second)
	h.Track(1)
	h.Failure(1)
	clk.Advance(time.Second + time.Millisecond)
	if !h.Allow(1) {
		t.Fatal("probe not admitted")
	}
	// The failed probe reopens without reporting a fresh trip (entries
	// are already quarantined).
	if h.Failure(1) {
		t.Fatal("failed probe must not report a new trip")
	}
	if h.Allow(1) {
		t.Fatal("reopened breaker admitted a request")
	}
	clk.Advance(time.Second + time.Millisecond)
	if !h.Allow(1) {
		t.Fatal("second cooldown must admit another probe")
	}
}

func TestSweepSilentTripsOnlyQuietClosedPeers(t *testing.T) {
	h, clk := newTestTracker(3, time.Second)
	h.Track(1)
	h.Track(2)
	clk.Advance(10 * time.Second)
	h.Beat(2) // peer 2 keeps beating
	tripped := h.SweepSilent(5 * time.Second)
	if len(tripped) != 1 || tripped[0] != 1 {
		t.Fatalf("tripped = %v, want [1]", tripped)
	}
	if h.Allow(1) {
		t.Fatal("silent peer still admitted")
	}
	if !h.Allow(2) {
		t.Fatal("beating peer blocked")
	}
	// Already-open peers are not re-tripped.
	if again := h.SweepSilent(5 * time.Second); len(again) != 0 {
		t.Fatalf("re-tripped: %v", again)
	}
}

func TestHealthSnapshotOrderedAndTouch(t *testing.T) {
	h, clk := newTestTracker(3, time.Second)
	for _, id := range []int{5, 1, 3} {
		h.Track(id)
	}
	h.Success(3, 10*time.Millisecond)
	clk.Advance(2 * time.Second)
	h.Touch(1)
	snap := h.Snapshot()
	if len(snap) != 3 || snap[0].Client != 1 || snap[1].Client != 3 || snap[2].Client != 5 {
		t.Fatalf("snapshot order: %+v", snap)
	}
	if snap[0].LastSeenAgeSec != 0 {
		t.Fatalf("Touch did not refresh last-seen: %+v", snap[0])
	}
	if snap[1].EWMALatencyMs != 10 {
		t.Fatalf("ewma = %v, want 10ms", snap[1].EWMALatencyMs)
	}
}

// TestDeliveredTicketRing: delivered relay sessions stay for /report-bad
// until the ring of the last delivered tickets pushes them out — the oldest
// first, one at a time, never the whole table at once.
func TestDeliveredTicketRing(t *testing.T) {
	s := testServer(t, nil)
	s.delivered = make([]anonymity.Ticket, 4)
	s.relayMu.Lock()
	defer s.relayMu.Unlock()
	for i := 0; i < 7; i++ {
		ticket := anonymity.Ticket(fmt.Sprintf("t%d", i))
		s.relays[ticket] = &relaySession{holder: i, pushed: true}
		s.keepDelivered(ticket)
	}
	// Oldest three evicted, newest four kept.
	for i := 0; i < 7; i++ {
		session := s.relays[anonymity.Ticket(fmt.Sprintf("t%d", i))]
		if kept := session != nil; kept != (i >= 3) {
			t.Errorf("t%d kept = %v, want %v", i, kept, i >= 3)
		} else if kept && session.holder != i {
			t.Errorf("t%d: holder = %d", i, session.holder)
		}
	}
	// A waiting session is not in the ring: deliveries evict around it.
	s.relays["waiting"] = &relaySession{holder: 99}
	s.relays["t7"] = &relaySession{holder: 7, pushed: true}
	s.keepDelivered("t7")
	if s.relays["waiting"] == nil || s.relays["t3"] != nil || len(s.relays) != 5 {
		t.Errorf("after one more delivery: %d sessions, waiting kept %v, t3 kept %v",
			len(s.relays), s.relays["waiting"] != nil, s.relays["t3"] != nil)
	}
}

func TestFetchAuthenticatesClientHeader(t *testing.T) {
	originTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("doc"))
	}))
	defer originTS.Close()
	s := testServer(t, nil)
	reg := register(t, s, "http://127.0.0.1:1")
	u := originTS.URL + "/auth/doc"

	get := func(client, token string) int {
		req, _ := http.NewRequest(http.MethodGet, s.BaseURL()+"/fetch?url="+neturl.QueryEscape(u), nil)
		if client != "" {
			req.Header.Set(HeaderClient, client)
		}
		if token != "" {
			req.Header.Set(HeaderToken, token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	// Claiming an identity without (or with a wrong) token is rejected.
	if code := get(strconv.Itoa(reg.ClientID), ""); code != http.StatusForbidden {
		t.Errorf("missing token: %d", code)
	}
	if code := get(strconv.Itoa(reg.ClientID), "forged"); code != http.StatusForbidden {
		t.Errorf("forged token: %d", code)
	}
	if code := get(strconv.Itoa(reg.ClientID+1), reg.Token); code != http.StatusForbidden {
		t.Errorf("mismatched id: %d", code)
	}
	// Authenticated and anonymous fetches both pass.
	if code := get(strconv.Itoa(reg.ClientID), reg.Token); code != http.StatusOK {
		t.Errorf("valid credentials: %d", code)
	}
	if code := get("", ""); code != http.StatusOK {
		t.Errorf("anonymous: %d", code)
	}
}

func TestHeartbeatAndUnregisterEndpoints(t *testing.T) {
	s := testServer(t, nil)
	reg := register(t, s, "http://127.0.0.1:1")

	post := func(path, client, token string) int {
		req, _ := http.NewRequest(http.MethodPost, s.BaseURL()+path, nil)
		req.Header.Set(HeaderClient, client)
		req.Header.Set(HeaderToken, token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	id := strconv.Itoa(reg.ClientID)
	if code := post("/heartbeat", id, "wrong"); code != http.StatusForbidden {
		t.Errorf("bad heartbeat token: %d", code)
	}
	if code := post("/heartbeat", id, reg.Token); code != http.StatusNoContent {
		t.Errorf("heartbeat: %d", code)
	}
	if st := s.Snapshot(); st.Heartbeats != 1 {
		t.Errorf("heartbeats = %d", st.Heartbeats)
	}

	s.Index().Add(indexEntryFor(s, reg.ClientID, "http://x/a", 10))
	if code := post("/unregister", id, reg.Token); code != http.StatusNoContent {
		t.Errorf("unregister: %d", code)
	}
	st := s.Snapshot()
	if st.Unregisters != 1 || st.Clients != 0 || st.IndexEntries != 0 {
		t.Errorf("after unregister: %+v", st)
	}
	// The departed client's token is dead.
	if code := post("/heartbeat", id, reg.Token); code != http.StatusForbidden {
		t.Errorf("post-unregister heartbeat: %d", code)
	}
}

// TestPeerCrashMidTransfer: a holder that dies while streaming the body
// (connection aborted mid-response) is detected; the request falls through
// to the origin and the failure counts toward the holder's breaker.
func TestPeerCrashMidTransfer(t *testing.T) {
	originTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("authentic body"))
	}))
	defer originTS.Close()

	s := testServer(t, func(c *Config) { c.Forward = FetchForward })
	reg := fakePeer(t, s, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "100000")
		w.WriteHeader(http.StatusOK)
		w.Write(make([]byte, 1000))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler) // crash mid-transfer
	})
	u := originTS.URL + "/crash/doc"
	s.Index().Add(indexEntryFor(s, reg.ClientID, u, 14))

	resp, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get(HeaderSource) != SourceOrigin || string(body) != "authentic body" {
		t.Fatalf("source=%q body=%q", resp.Header.Get(HeaderSource), body)
	}
	st := s.Snapshot()
	if st.FalsePeerHits != 1 {
		t.Fatalf("false peer hits: %+v", st)
	}
	if len(st.PeerHealth) != 1 || st.PeerHealth[0].Failures != 1 {
		t.Fatalf("crash not charged to the peer: %+v", st.PeerHealth)
	}
	if s.Index().Has(reg.ClientID, s.syms.Intern(u)) {
		t.Fatal("crashed holder's entry not pruned")
	}
}

// TestBreakerQuarantinesWholePeer: once a peer trips, its other entries are
// shelved in the same step and holder selection skips them — no
// one-failed-fetch-per-document discovery.
func TestBreakerQuarantinesWholePeer(t *testing.T) {
	originTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("fallback"))
	}))
	defer originTS.Close()

	s := testServer(t, func(c *Config) {
		c.Forward = FetchForward
		c.BreakerThreshold = 1
	})
	reg := fakePeer(t, s, func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler) // dead peer
	})
	u1 := originTS.URL + "/q/1"
	u2 := originTS.URL + "/q/2"
	u3 := originTS.URL + "/q/3"
	for _, u := range []string{u1, u2, u3} {
		s.Index().Add(indexEntryFor(s, reg.ClientID, u, 8))
	}

	fetch := func(u string) {
		t.Helper()
		resp, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	fetch(u1) // trips the breaker, quarantines u2+u3 in the same step
	st := s.Snapshot()
	if st.BreakerTrips != 1 || st.QuarantinedEntries != 2 || st.BreakerOpen != 1 {
		t.Fatalf("after trip: %+v", st)
	}
	// u2's fetch must not contact the dead peer (only one transport
	// failure ever recorded) — it goes straight to the origin.
	fetch(u2)
	st = s.Snapshot()
	if st.FalsePeerHits != 1 {
		t.Fatalf("open breaker was bypassed: %+v", st)
	}
	// The quarantined entries survive (shelved, not deleted).
	if !s.Index().Has(reg.ClientID, s.syms.Intern(u2)) || !s.Index().Has(reg.ClientID, s.syms.Intern(u3)) {
		t.Fatal("quarantined entries were deleted")
	}
}

// TestHedgedOriginWinsOverSlowPeer: when the peer path exceeds the soft
// deadline, the origin is raced in parallel and the client is served
// without waiting out PeerTimeout.
func TestHedgedOriginWinsOverSlowPeer(t *testing.T) {
	originTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("fast origin"))
	}))
	defer originTS.Close()

	s := testServer(t, func(c *Config) {
		c.Forward = FetchForward
		c.PeerTimeout = 3 * time.Second
		c.PeerSoftDeadline = 100 * time.Millisecond
	})
	reg := fakePeer(t, s, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Second) // grinding holder
	})
	u := originTS.URL + "/slow/doc"
	s.Index().Add(indexEntryFor(s, reg.ClientID, u, 11))

	start := time.Now()
	resp, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.Header.Get(HeaderSource) != SourceOrigin || string(body) != "fast origin" {
		t.Fatalf("source=%q body=%q", resp.Header.Get(HeaderSource), body)
	}
	if elapsed > time.Second {
		t.Fatalf("hedged fetch took %v — peer path was awaited", elapsed)
	}
	if st := s.Snapshot(); st.HedgedWins != 1 {
		t.Fatalf("hedged win not recorded: %+v", st)
	}
}

// TestReRegisterSupersedesQuarantinedIdentity: a browser that crashed,
// was quarantined by the silence sweep, and came back on the same peer URL
// with a fresh /register must fully displace its old identity. The
// regression this guards: the old client id's index entries survived as
// quarantined holders of a registration that would never heartbeat again —
// unservable, unsweepable, and shadowing the live replacement.
func TestReRegisterSupersedesQuarantinedIdentity(t *testing.T) {
	s := testServer(t, nil)
	const peerURL = "http://127.0.0.1:45678"
	u := "http://example.com/super/doc"

	reg1 := register(t, s, peerURL)
	addIndexEntry(t, s, reg1, u, 11)
	// The silence sweep quarantined the crashed browser's id.
	s.Index().Quarantine(reg1.ClientID)
	if s.Index().QuarantinedEntries() != 1 {
		t.Fatalf("setup: quarantined entries = %d, want 1", s.Index().QuarantinedEntries())
	}

	// Crash-restart: same peer URL, new registration.
	reg2 := register(t, s, peerURL)
	if reg2.ClientID == reg1.ClientID {
		t.Fatalf("re-register reused client id %d", reg2.ClientID)
	}
	if reg2.Token == reg1.Token {
		t.Fatal("re-register reused token")
	}

	// The old identity is gone root and branch: no index entries (not even
	// quarantined ones), and the old token no longer authenticates.
	doc, ok := s.Syms().Lookup(u)
	if !ok {
		t.Fatal("doc not interned")
	}
	if s.Index().Has(reg1.ClientID, doc) {
		t.Fatal("old client id still holds an index entry after re-register")
	}
	if n := s.Index().QuarantinedEntries(); n != 0 {
		t.Fatalf("quarantined entries after re-register = %d, want 0", n)
	}
	if r := postBatch(t, s, reg1, IndexBatch{Gen: 1, Deltas: []IndexDelta{{URL: u, Size: 11}}}); r.Accepted != 0 {
		t.Fatalf("stale token's index delta accepted: %+v", r)
	}

	// The replacement identity is fully live.
	addIndexEntry(t, s, reg2, u, 11)
	if !s.Index().Has(reg2.ClientID, doc) {
		t.Fatal("new client id's entry missing")
	}
	if got := len(s.Index().Ordered(doc, -1)); got != 1 {
		t.Fatalf("orderable holders = %d, want 1 (the new id)", got)
	}
}
