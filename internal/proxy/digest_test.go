package proxy

import (
	"bytes"
	"crypto/md5"
	"encoding/base64"
	"io"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"sync"
	"testing"
	"time"

	"baps/internal/origin"
)

// markOf is the watermark a registered client must receive with body:
// Signer.WatermarkDigest(MD5(body)) under s's key, in header form.
func markOf(t *testing.T, s *Server, body []byte) string {
	t.Helper()
	sum := md5.Sum(body)
	mark, err := proxySigner(t, s).WatermarkDigest(sum[:])
	if err != nil {
		t.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(mark)
}

// TestDigestOnDemand: a document's digest is there whenever a consumer needs
// it, however the proxy acquired the body. Every row starts with an
// anonymous origin fetch, which needs no digest; then a registered serve (a
// hit, concurrent hits racing to record the digest, a revalidated copy, a
// disk copy after a crash) carries the mark of the bytes it serves, and a
// peer serve of the document is checked.
func TestDigestOnDemand(t *testing.T) {
	t.Run("hit", func(t *testing.T) {
		o := origin.New(41)
		ots := httptest.NewServer(o.Handler())
		defer ots.Close()
		s := testServer(t, nil)
		reg := register(t, s, "http://127.0.0.1:1")

		u := ots.URL + "/digest/hit?size=3000"
		if source, _ := fetchDoc(t, s, u); source != SourceOrigin {
			t.Fatalf("first fetch source = %q, want origin", source)
		}
		body, source, mark := markedFetch(t, s, reg, u)
		if source != SourceProxy {
			t.Fatalf("registered fetch source = %q, want proxy", source)
		}
		if mark != markOf(t, s, body) {
			t.Fatal("registered hit's watermark is not the mark of the bytes served")
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		o := origin.New(43)
		ots := httptest.NewServer(o.Handler())
		defer ots.Close()
		s := testServer(t, nil)
		reg := register(t, s, "http://127.0.0.1:1")

		u := ots.URL + "/digest/concurrent?size=5000"
		_, body := fetchDoc(t, s, u)
		want := markOf(t, s, body)
		// Registered hits race to derive and record the first digest.
		const clients = 16
		marks := make(chan string, clients)
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := registeredGet(s, reg, u)
				if err != nil {
					t.Error(err)
					marks <- ""
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				marks <- resp.Header.Get(HeaderWatermark)
			}()
		}
		wg.Wait()
		close(marks)
		for mark := range marks {
			if mark != want {
				t.Fatal("a concurrent registered hit got a mark other than its bytes'")
			}
		}
		sum := md5.Sum(body)
		if r := docSnapshot(s, u); r == nil || !bytes.Equal(r.meta.digest, sum[:]) {
			t.Fatal("the record holds no digest, or the wrong one, after the registered hits")
		}
	})

	t.Run("revalidated", func(t *testing.T) {
		o := newScriptedOrigin(t)
		s := testServer(t, func(c *Config) {
			c.RevalidateAfter = 60 * time.Millisecond
			c.RevalidateEvery = 20 * time.Millisecond
		})
		reg := register(t, s, "http://127.0.0.1:1")

		u := o.srv.URL + "/doc"
		o.set("/doc", bytes.Repeat([]byte("old edition. "), 200), 0)
		if source, _ := fetchDoc(t, s, u); source != SourceOrigin {
			t.Fatalf("first fetch source = %q, want origin", source)
		}
		fresh := bytes.Repeat([]byte("new edition! "), 300)
		o.set("/doc", fresh, 1)
		pollUntil(t, 3*time.Second, "revalidation stores the new bytes", func() bool {
			r := docSnapshot(s, u)
			return s.m.revalChanged.Value() >= 1 && r != nil && r.meta.version == 1 && r.state == docMemory
		})
		body, source, mark := markedFetch(t, s, reg, u)
		if source != SourceProxy || !bytes.Equal(body, fresh) {
			t.Fatalf("registered fetch: source %q, new bytes %v", source, bytes.Equal(body, fresh))
		}
		if mark != markOf(t, s, fresh) {
			t.Fatal("registered fetch after a revalidation 200 lacks the new bytes' mark")
		}
	})

	t.Run("restart", func(t *testing.T) {
		dir := t.TempDir()
		s, ots := startDiskProxy(t, diskTestConfig(dir))
		defer ots.Close()

		u := ots.URL + "/digest/kept?size=16384"
		source, pre := fetchDoc(t, s, u)
		if source != SourceOrigin {
			t.Fatalf("first fetch source = %q, want origin", source)
		}
		fetchDoc(t, s, u) // admitted
		fetchDoc(t, s, ots.URL+"/f1?size=16384")
		fetchDoc(t, s, ots.URL+"/f2?size=16384")
		waitFor(t, "spill before crash", func() bool {
			r := docSnapshot(s, u)
			return r != nil && r.state == docDisk
		})
		time.Sleep(400 * time.Millisecond) // interval flush reaches the OS
		s.Crash()

		s2, err := New(diskTestConfig(dir))
		if err != nil {
			t.Fatalf("reopen after crash: %v", err)
		}
		if err := s2.Start(""); err != nil {
			t.Fatalf("restart after crash: %v", err)
		}
		defer s2.Close()
		reg := register(t, s2, "http://127.0.0.1:1")

		body, source, mark := markedFetch(t, s2, reg, u)
		if source != SourceProxy || !bytes.Equal(body, pre) {
			t.Fatalf("disk serve: source %q, pre-crash bytes %v", source, bytes.Equal(body, pre))
		}
		if mark != markOf(t, s2, pre) {
			t.Fatal("disk serve after restart lacks the pre-crash bytes' mark")
		}
		// The first access after a restart streams from disk under the
		// journaled digest; nothing had to be faulted in to derive one.
		if r := docSnapshot(s2, u); r == nil || r.state != docDisk {
			t.Fatal("the registered disk serve promoted the body: its journal entry carried no digest")
		}
	})

	t.Run("peer", func(t *testing.T) { peerServeRow(t, true) })
	t.Run("unmarked", func(t *testing.T) { peerServeRow(t, false) })
}

// peerServeRow: a document the proxy served only anonymously, so it holds no
// digest for it, is then served by a holder with the exact bytes. With the
// holder's valid mark (marked) the serve is a remote hit and the holder's
// breaker stays closed; without a mark, nothing vouches for the bytes: the
// holder is rejected and the origin serves the document.
func peerServeRow(t *testing.T, marked bool) {
	o := origin.New(42)
	ots := httptest.NewServer(o.Handler())
	defer ots.Close()
	// Capacity 1: nothing is cached, so the second fetch walks the index
	// instead of hitting the proxy.
	s := testServer(t, func(c *Config) {
		c.CacheCapacity = 1
		c.CachePeerDocs = false
		c.BreakerThreshold = 1
	})

	u := ots.URL + "/digest/peer?size=1500"
	resp, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	version := resp.Header.Get(HeaderVersion)
	if resp.Header.Get(HeaderSource) != SourceOrigin {
		t.Fatalf("first fetch source = %q, want origin", resp.Header.Get(HeaderSource))
	}
	mark := ""
	if marked {
		mark = markOf(t, s, body)
	}
	holder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderVersion, version)
		if mark != "" {
			w.Header().Set(HeaderWatermark, mark)
		}
		w.Write(body)
	}))
	defer holder.Close()
	reg := register(t, s, holder.URL)
	s.Index().Add(indexEntryFor(s, reg.ClientID, u, int64(len(body))))

	source, got := fetchDoc(t, s, u)
	st := s.Snapshot()
	if !marked {
		if source != SourceOrigin || !bytes.Equal(got, body) {
			t.Fatalf("holder serving an unmarked copy: source %q, bytes equal %v (want origin/true)", source, bytes.Equal(got, body))
		}
		if st.TamperRejected != 1 || s.Index().Has(reg.ClientID, s.syms.Intern(u)) {
			t.Fatalf("tamper_rejected = %d, holder still indexed %v; want 1/false",
				st.TamperRejected, s.Index().Has(reg.ClientID, s.syms.Intern(u)))
		}
		return
	}
	if source != SourceRemote || !bytes.Equal(got, body) {
		t.Fatalf("holder serving the exact bytes: source %q, bytes equal %v", source, bytes.Equal(got, body))
	}
	if st.TamperRejected != 0 || st.BreakerOpen != 0 {
		t.Fatalf("tamper_rejected = %d, breaker_open = %d, want 0/0", st.TamperRejected, st.BreakerOpen)
	}
	for _, ph := range st.PeerHealth {
		if ph.Client == reg.ClientID && (ph.Breaker != "closed" || ph.Failures != 0) {
			t.Fatalf("holder breaker %s with %d failures, want closed with none", ph.Breaker, ph.Failures)
		}
	}
	sum := md5.Sum(body)
	if r := docSnapshot(s, u); r == nil || !bytes.Equal(r.meta.digest, sum[:]) {
		t.Fatal("the checked peer serve left no digest on the document's record")
	}
}
