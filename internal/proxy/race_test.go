package proxy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"strconv"
	"sync"
	"testing"
	"time"

	"baps/internal/origin"
)

// TestDocsAndRegistrationUnderRace runs registration churn (/register,
// re-register, /heartbeat, /unregister), registered and anonymous /fetch
// hits and misses, /index/batch publishes and origin modifications against
// direct calls to the three background scans that read the proxy's state:
// revalidateScan, writeBehind and saveState. Once the
// traffic and the background jobs it caused have settled, the document
// records must still agree with the cache accountant, and the registration
// tables with each other. Run it under -race.
func TestDocsAndRegistrationUnderRace(t *testing.T) {
	o := origin.New(5)
	ots := httptest.NewServer(o.Handler())
	t.Cleanup(ots.Close)
	// Every registered client's peer server: accepts every invalidation.
	agents := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(agents.Close)

	cfg := diskTestConfig(t.TempDir())
	cfg.stateSaveEvery = time.Hour // write-behind and state saves only from the scanner below
	cfg.RevalidateAfter = time.Nanosecond
	cfg.RevalidateEvery = time.Hour // every resident document is due; only direct scans nominate
	s := testServer(t, func(c *Config) { *c = cfg })

	// Ten documents of 3 000 to 11 000 bytes: more than the 40 000-byte
	// memory tier holds, so hot ones spill to disk and come back.
	docURL := func(i int) string {
		return fmt.Sprintf("%s/docs/r%d?size=%d", ots.URL, i%10, 3000+(i%10%3)*4000)
	}
	fetcher := register(t, s, agents.URL+"/fetcher")
	publisher := register(t, s, agents.URL+"/publisher")

	const rounds = 60
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f(i)
			}
		}()
	}
	// The workers report failures with t.Error, never t.Fatal: they do not
	// run on the test goroutine.
	send := func(method, path string, id int, token string, body []byte, out any) {
		req, _ := http.NewRequest(method, s.BaseURL()+path, bytes.NewReader(body))
		if token != "" {
			req.Header.Set(HeaderClient, strconv.Itoa(id))
			req.Header.Set(HeaderToken, token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("%s %s: %v", method, path, err)
			return
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Errorf("%s %s: status %d: %v", method, path, resp.StatusCode, err)
			}
			return
		}
		io.Copy(io.Discard, resp.Body)
	}
	for c := 0; c < 3; c++ {
		run(func(i int) {
			// Two registrations per peer URL: the second supersedes the
			// first, whose token must die with it.
			var reg RegisterResponse
			body, _ := json.Marshal(RegisterRequest{PeerURL: fmt.Sprintf("%s/churn%d-%d", agents.URL, c, i%4)})
			send(http.MethodPost, "/register", 0, "", body, &reg)
			send(http.MethodPost, "/heartbeat", reg.ClientID, reg.Token, nil, nil)
			if i%2 == 1 {
				send(http.MethodPost, "/unregister", reg.ClientID, reg.Token, nil, nil)
			}
		})
	}
	for c := 0; c < 2; c++ {
		run(func(i int) {
			path := "/fetch?url=" + neturl.QueryEscape(docURL(i*7+c))
			if i%2 == 0 {
				send(http.MethodGet, path, fetcher.ClientID, fetcher.Token, nil, nil)
			} else {
				send(http.MethodGet, path, 0, "", nil, nil)
			}
		})
	}
	run(func(i int) {
		batch := IndexBatch{ClientID: publisher.ClientID, Gen: uint64(i + 1), Deltas: []IndexDelta{{URL: docURL(i), Size: 4000}}}
		body, _ := json.Marshal(IndexMultiBatch{Batches: []HostBatch{{IndexBatch: batch, Token: publisher.Token}}})
		var out MultiBatchResponse
		send(http.MethodPost, "/index/batch", 0, "", body, &out)
		if out.Accepted != 1 {
			t.Errorf("index batch %d not accepted: %+v", i+1, out)
		}
		if i%10 == 0 {
			o.Modify(fmt.Sprintf("/docs/r%d", i%10))
		}
	})
	// The scans run until the traffic stops.
	stop, scanned := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scanned)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				s.revalidateScan()
			case 1:
				s.writeBehind()
			default:
				s.saveState()
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(stop)
	<-scanned

	// Let the jobs the scans and modifications queued finish, then run the
	// spill worker dry, so nothing moves while the invariants are read.
	pollUntil(t, 10*time.Second, "background jobs to settle", func() bool {
		st := s.wq.Stats()
		return st.Depth == 0 && st.Running == 0 && st.Waiting == 0
	})
	s.diskOnce.Do(func() { close(s.stopDisk) })
	s.diskWG.Wait()
	checkDocs(t, s, "after the race")
	checkRegistration(t, s)
}

// checkRegistration asserts that the registration tables agree: every token
// maps to a registered client, every client has exactly one token, and the
// by-URL index names each client under its own peer URL.
func checkRegistration(t *testing.T, s *Server) {
	t.Helper()
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	tokens := map[int]int{}
	for token, id := range s.tokens {
		if p, ok := s.peers[id]; !ok || p.token != token {
			t.Errorf("token of client %d maps to no registration with that token", id)
		}
		tokens[id]++
	}
	for id, p := range s.peers {
		if p.id != id || tokens[id] != 1 {
			t.Errorf("client %d (record id %d) has %d tokens, want 1", id, p.id, tokens[id])
		}
		if s.peersByURL[p.baseURL] != id {
			t.Errorf("client %d is not indexed under its peer URL %s", id, p.baseURL)
		}
	}
	if len(s.peersByURL) != len(s.peers) {
		t.Errorf("%d peer URLs indexed for %d clients", len(s.peersByURL), len(s.peers))
	}
}
