package proxy

import (
	"io"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"sync/atomic"
	"testing"
	"time"

	"baps/internal/bloom"
)

// TestStatusClassification pins what each outbound call makes of the status
// it gets back. A holder's or sibling's 404 means "not held": the entry is
// pruned and no breaker is charged. Any other failure charges the breaker
// (tripping it at BreakerThreshold 1). Only transient origin statuses are
// retried.
func TestStatusClassification(t *testing.T) {
	t.Run("holder", func(t *testing.T) {
		for _, c := range []struct {
			name   string
			mode   ForwardMode
			route  string // the holder route that answers status
			status int
			open   bool // holder breaker open after the fetch
		}{
			{"fetch 404", FetchForward, "/peer/doc", http.StatusNotFound, false},
			{"fetch 500", FetchForward, "/peer/doc", http.StatusInternalServerError, true},
			{"direct 404", DirectForward, "/peer/send", http.StatusNotFound, false},
			{"direct 500", DirectForward, "/peer/send", http.StatusInternalServerError, true},
			{"onion 404", OnionForward, "/peer/onion-send", http.StatusNotFound, false},
			{"onion 500", OnionForward, "/peer/onion-send", http.StatusInternalServerError, true},
		} {
			t.Run(c.name, func(t *testing.T) { holderStatusCase(t, c.mode, c.route, c.status, c.open) })
		}
	})

	t.Run("sibling", func(t *testing.T) {
		for _, c := range []struct {
			name     string
			status   int // the sibling's /fetch answer after locate said held
			failures int64
			breaker  string
		}{
			{"fetch 404", http.StatusNotFound, 0, "closed"},
			{"fetch 500", http.StatusInternalServerError, 1, "open"},
		} {
			t.Run(c.name, func(t *testing.T) { siblingStatusCase(t, c.status, c.failures, c.breaker) })
		}
	})

	t.Run("origin", func(t *testing.T) {
		for _, c := range []struct {
			name     string
			status   int
			attempts int64
		}{
			{"404", http.StatusNotFound, 1},
			{"503", http.StatusServiceUnavailable, 3},
			{"429", http.StatusTooManyRequests, 3},
		} {
			t.Run(c.name, func(t *testing.T) {
				var hits atomic.Int64
				origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					hits.Add(1)
					http.Error(w, "no", c.status)
				}))
				defer origin.Close()
				s := testServer(t, func(cfg *Config) { cfg.OriginRetries = 2 })
				resp, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(origin.URL+"/doc"))
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadGateway {
					t.Fatalf("status = %d, want 502", resp.StatusCode)
				}
				if got := hits.Load(); got != c.attempts {
					t.Fatalf("origin attempts = %d, want %d", got, c.attempts)
				}
				if got := s.Snapshot().OriginRetries; got != c.attempts-1 {
					t.Fatalf("origin_retries = %d, want %d", got, c.attempts-1)
				}
			})
		}
	})
}

// holderStatusCase indexes one document at a holder whose route answers
// status, fetches it as a registered client and checks that it fell through
// to the origin, pruned the entry, and left the holder's breaker as want.
func holderStatusCase(t *testing.T, mode ForwardMode, route string, status int, open bool) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("origin copy"))
	}))
	defer origin.Close()
	s := testServer(t, func(c *Config) {
		c.Forward = mode
		c.BreakerThreshold = 1
	})
	mux := http.NewServeMux()
	mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		http.Error(w, "scripted", status)
	})
	holderTS := httptest.NewServer(mux)
	defer holderTS.Close()
	holder := register(t, s, holderTS.URL)
	requesterTS := httptest.NewServer(http.NotFoundHandler())
	defer requesterTS.Close()
	requester := register(t, s, requesterTS.URL)

	u := origin.URL + "/doc"
	s.Index().Add(indexEntryFor(s, holder.ClientID, u, 11))
	resp, err := registeredGet(s, requester, u)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if src := resp.Header.Get(HeaderSource); src != SourceOrigin || string(body) != "origin copy" {
		t.Fatalf("source = %q body = %q, want the origin copy", src, body)
	}
	if s.Index().Has(holder.ClientID, s.syms.Intern(u)) {
		t.Fatal("holder entry not pruned")
	}
	st := s.Snapshot()
	if st.FalsePeerHits != 1 {
		t.Fatalf("false_peer_hits = %d, want 1", st.FalsePeerHits)
	}
	wantOpen, wantFailures := 0, int64(0)
	if open {
		wantOpen, wantFailures = 1, 1
	}
	if st.BreakerOpen != wantOpen || st.BreakerTrips != int64(wantOpen) {
		t.Fatalf("breaker_open = %d, breaker_trips = %d, want %d", st.BreakerOpen, st.BreakerTrips, wantOpen)
	}
	for _, ph := range st.PeerHealth {
		if ph.Client == holder.ClientID && ph.Failures != wantFailures {
			t.Fatalf("holder failures = %d, want %d", ph.Failures, wantFailures)
		}
	}
}

// siblingStatusCase federates one proxy with a scripted sibling whose
// digest claims the document and whose locate confirms it, but whose
// cluster-hop /fetch answers status. The request falls through to the
// origin; the sibling's breaker record must read failures and breaker.
func siblingStatusCase(t *testing.T, status int, failures int64, breaker string) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("origin copy"))
	}))
	defer origin.Close()
	sib := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		switch r.URL.Path {
		case "/peer/locate":
			writeJSON(w, LocateResponse{Held: true, Via: "cache"})
		case "/fetch":
			http.Error(w, "scripted", status)
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	defer sib.Close()
	s := testServer(t, func(c *Config) {
		c.BreakerThreshold = 1
		c.DigestInterval = time.Hour
	})
	if err := s.JoinCluster([]string{sib.URL}); err != nil {
		t.Fatal(err)
	}
	u := origin.URL + "/doc"
	f, err := bloom.NewFilterForFPR(64, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	f.Add(u)
	raw, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cluster().ObserveDocs(sib.URL, raw, 1); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if src := resp.Header.Get(HeaderSource); src != SourceOrigin || string(body) != "origin copy" {
		t.Fatalf("source = %q body = %q, want the origin copy", src, body)
	}
	fs := s.Cluster().Snapshot()
	if len(fs.Siblings) != 1 {
		t.Fatalf("siblings: %+v", fs.Siblings)
	}
	got := fs.Siblings[0]
	if got.Confirms != 1 || got.Failures != failures || got.Breaker != breaker {
		t.Fatalf("sibling record %+v, want 1 confirm, %d failures, breaker %s", got, failures, breaker)
	}
}
