package browser

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"baps/internal/integrity"
	"baps/internal/proxy"
)

// stubProxy is a minimal registration endpoint that records the ORDER of
// heartbeat completions relative to the unregister, with heartbeats slowed
// down so an in-flight beat has every chance to straddle Close.
type stubProxy struct {
	ts *httptest.Server

	mu           sync.Mutex
	beatsDone    []time.Time
	unregisterAt time.Time
}

func newStubProxy(t *testing.T) *stubProxy {
	t.Helper()
	signer, err := integrity.NewSigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	pubPEM, err := integrity.MarshalPublicKey(signer.Public())
	if err != nil {
		t.Fatal(err)
	}

	sp := &stubProxy{}
	mux := http.NewServeMux()
	mux.HandleFunc("/register", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(proxy.RegisterResponse{
			ClientID: 1, Token: "tok", PublicKey: string(pubPEM),
		})
	})
	mux.HandleFunc("/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(50 * time.Millisecond) // a beat in flight during Close
		w.WriteHeader(http.StatusNoContent)
		sp.mu.Lock()
		sp.beatsDone = append(sp.beatsDone, time.Now())
		sp.mu.Unlock()
	})
	mux.HandleFunc("/unregister", func(w http.ResponseWriter, r *http.Request) {
		sp.mu.Lock()
		sp.unregisterAt = time.Now()
		sp.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
	sp.ts = httptest.NewServer(mux)
	t.Cleanup(sp.ts.Close)
	return sp
}

// TestCloseStopsHeartbeatBeforeUnregister is the regression test for the
// shutdown ordering bug: Close must stop the heartbeat loop AND wait for an
// in-flight beat to finish before posting /unregister. A beat that completes
// after the unregister would re-animate the proxy's health record for a
// client that no longer exists, pinning a dead peer in the routing tables
// until the silence sweeper notices.
func TestCloseStopsHeartbeatBeforeUnregister(t *testing.T) {
	sp := newStubProxy(t)

	cfg := DefaultConfig(sp.ts.URL)
	cfg.HeartbeatInterval = 10 * time.Millisecond // beats far faster than the 50ms stall
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Let several beats pile up against the slow endpoint, then close while
	// one is guaranteed to be in flight.
	time.Sleep(120 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Let any straggler beat (one Close failed to wait for) reach the stub:
	// the bug is precisely a beat that lands after Close has returned.
	time.Sleep(150 * time.Millisecond)

	sp.mu.Lock()
	defer sp.mu.Unlock()
	if len(sp.beatsDone) == 0 {
		t.Fatal("no heartbeat ever completed; the test exercised nothing")
	}
	if sp.unregisterAt.IsZero() {
		t.Fatal("Close never unregistered")
	}
	for i, done := range sp.beatsDone {
		if done.After(sp.unregisterAt) {
			t.Fatalf("heartbeat %d completed %v AFTER the unregister — Close did not wait for the heartbeat loop",
				i, done.Sub(sp.unregisterAt))
		}
	}
}

// TestHostedCloseStopsHeartbeatBeforeUnregister is the same ordering
// guarantee for an agent on a shared host: the host's pacer may be beating
// for the agent when Close runs, and that beat must complete before the
// unregister is posted.
func TestHostedCloseStopsHeartbeatBeforeUnregister(t *testing.T) {
	sp := newStubProxy(t)

	cfg := DefaultConfig(sp.ts.URL)
	cfg.HeartbeatInterval = 10 * time.Millisecond
	h, err := NewHost(HostConfig{Agent: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	a, err := h.Spawn()
	if err != nil {
		t.Fatal(err)
	}

	time.Sleep(120 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	time.Sleep(150 * time.Millisecond)

	sp.mu.Lock()
	defer sp.mu.Unlock()
	if len(sp.beatsDone) == 0 {
		t.Fatal("no heartbeat ever completed; the test exercised nothing")
	}
	if sp.unregisterAt.IsZero() {
		t.Fatal("Close never unregistered")
	}
	for i, done := range sp.beatsDone {
		if done.After(sp.unregisterAt) {
			t.Fatalf("heartbeat %d completed %v AFTER the unregister — Close did not wait for the host's beat in flight",
				i, done.Sub(sp.unregisterAt))
		}
	}
}
