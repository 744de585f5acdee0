package proxy

import (
	"bytes"
	"crypto/rsa"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"baps/internal/integrity"
	"baps/internal/origin"
)

// keyGenerations reads baps_proxy_signing_key_generations_total.
func keyGenerations(s *Server) int64 {
	return s.Obs().CounterValue("baps_proxy_signing_key_generations_total")
}

// proxyPublicKey reads s's watermark key the way an agent does, from /pubkey.
func proxyPublicKey(t *testing.T, s *Server) *rsa.PublicKey {
	t.Helper()
	pub, err := integrity.ParsePublicKey(fetchPubkey(t, s))
	if err != nil {
		t.Fatal(err)
	}
	return pub
}

// proxySigner is s's watermark signer, for tests that play a holder serving
// a watermark the proxy made earlier.
func proxySigner(t *testing.T, s *Server) *integrity.Signer {
	t.Helper()
	k, err := s.signingKey()
	if err != nil {
		t.Fatal(err)
	}
	return k.signer
}

// startKeyed starts a proxy on cfg whose key source is source(s), installed
// before the proxy serves.
func startKeyed(t *testing.T, cfg Config, source func(s *Server) func() (*integrity.Signer, error)) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.keySource = source(s)
	if err := s.Start(""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// seedClients restores one registered client per peer URL into s, the way a
// warm restart does, so registered traffic can reach a proxy that has no key
// yet. Client i gets id i.
func seedClients(t *testing.T, s *Server, peerURLs ...string) []RegisterResponse {
	t.Helper()
	st := persistState{NextID: len(peerURLs)}
	regs := make([]RegisterResponse, len(peerURLs))
	for i, u := range peerURLs {
		regs[i] = RegisterResponse{ClientID: i, Token: fmt.Sprintf("seeded-token-%d", i)}
		st.Clients = append(st.Clients, persistClient{ID: i, PeerURL: u, Token: regs[i].Token})
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	s.restoreState(blob)
	return regs
}

// TestSigningKeyUngeneratedForAnonymous: anonymous origin misses, memory
// hits, a disk spill, a disk stream and a disk promote never demand the
// key, so none is generated or written; the first /pubkey does both.
func TestSigningKeyUngeneratedForAnonymous(t *testing.T) {
	dir := t.TempDir()
	s, ots := startDiskProxy(t, diskTestConfig(dir))
	defer s.Close()
	defer ots.Close()

	a := ots.URL + "/anon/a?size=16384"
	fetchDoc(t, s, a)
	fetchDoc(t, s, a) // admitted
	fetchDoc(t, s, ots.URL+"/anon/b?size=16384")
	fetchDoc(t, s, ots.URL+"/anon/c?size=16384")
	waitFor(t, "spill of a", func() bool { return docSnapshot(s, a).state == docDisk })
	fetchDoc(t, s, a) // streamed from disk
	fetchDoc(t, s, a) // promoted
	waitFor(t, "two disk hits", func() bool { return s.Snapshot().DiskHits == 2 })

	if n := keyGenerations(s); n != 0 {
		t.Fatalf("anonymous traffic generated %d keys, want 0", n)
	}
	if _, err := os.Stat(filepath.Join(dir, keyFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("key file written without a key demand (stat err %v)", err)
	}
	if st := s.Snapshot(); st.WatermarkSigned != 0 {
		t.Fatalf("anonymous traffic signed %d watermarks", st.WatermarkSigned)
	}

	proxyPublicKey(t, s)
	if n := keyGenerations(s); n != 1 {
		t.Fatalf("first /pubkey generated %d keys, want 1", n)
	}
	if _, err := os.Stat(filepath.Join(dir, keyFile)); err != nil {
		t.Fatalf("generated key not on disk: %v", err)
	}
}

// TestSigningKeyConcurrentFirstDemandsGenerateOnce: 32 first demands arrive
// together over /register, /pubkey and registered /fetch while the key
// source is held. The key is generated once, every caller sees the one PEM,
// and every watermark verifies under it.
func TestSigningKeyConcurrentFirstDemandsGenerateOnce(t *testing.T) {
	ots := httptest.NewServer(origin.New(29).Handler())
	defer ots.Close()
	var sourced atomic.Int64
	release := make(chan struct{})
	cfg := DefaultConfig()
	cfg.KeyBits = 1024
	s := startKeyed(t, cfg, func(s *Server) func() (*integrity.Signer, error) {
		return func() (*integrity.Signer, error) {
			sourced.Add(1)
			<-release
			return s.loadOrCreateSigner()
		}
	})
	fetcher := seedClients(t, s, "http://127.0.0.1:1")[0]

	type reply struct {
		kind int // 0 register, 1 pubkey, 2 registered fetch
		code int
		pem  string
		body []byte
		mark string
		err  error
	}
	const n = 32
	replies := make(chan reply, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			r := reply{kind: i % 3}
			var resp *http.Response
			switch r.kind {
			case 0:
				req, _ := json.Marshal(RegisterRequest{PeerURL: fmt.Sprintf("http://127.0.0.1:%d", 1000+i)})
				resp, r.err = http.Post(s.BaseURL()+"/register", "application/json", bytes.NewReader(req))
			case 1:
				resp, r.err = http.Get(s.BaseURL() + "/pubkey")
			default:
				resp, r.err = registeredGet(s, fetcher, fmt.Sprintf("%s/key/%d?size=2000", ots.URL, i))
			}
			if r.err != nil {
				replies <- r
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			r.code = resp.StatusCode
			switch r.kind {
			case 0:
				var reg RegisterResponse
				json.Unmarshal(body, &reg)
				r.pem = reg.PublicKey
			case 1:
				r.pem = string(body)
			default:
				r.body, r.mark = body, resp.Header.Get(HeaderWatermark)
			}
			replies <- r
		}(i)
	}
	waitFor(t, "first key demand", func() bool { return sourced.Load() == 1 })
	time.Sleep(100 * time.Millisecond) // let the other demands park behind it
	close(release)

	var pems []string
	var fetched []reply
	for i := 0; i < n; i++ {
		r := <-replies
		if r.err != nil || r.code != http.StatusOK {
			t.Fatalf("demand kind %d: status %d, error %v", r.kind, r.code, r.err)
		}
		if r.kind == 2 {
			fetched = append(fetched, r)
		} else {
			pems = append(pems, r.pem)
		}
	}
	for _, p := range pems {
		if p != pems[0] {
			t.Fatal("callers saw different public keys")
		}
	}
	pub, err := integrity.ParsePublicKey([]byte(pems[0]))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fetched {
		mark, err := base64.StdEncoding.DecodeString(r.mark)
		if err != nil || integrity.Verify(pub, r.body, mark) != nil {
			t.Fatalf("registered fetch watermark does not verify under the served key (decode err %v)", err)
		}
	}
	if got := sourced.Load(); got != 1 {
		t.Fatalf("key source ran %d times for %d concurrent first demands, want 1", got, n)
	}
	if got := keyGenerations(s); got != 1 {
		t.Fatalf("%d keys generated, want 1", got)
	}
}

// TestSigningKeyDurableBeforeFirstUse: with a data directory, the key a
// first demand generates is on disk before any response carries it, as
// exactly one key.pem of mode 0600 (no temp file left behind), and a crashed
// proxy reopened on the directory serves the same PEM without generating.
func TestSigningKeyDurableBeforeFirstUse(t *testing.T) {
	dir := t.TempDir()
	cfg := diskTestConfig(dir)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var handedOut, durable atomic.Int64
	s.keySource = func() (*integrity.Signer, error) {
		signer, err := s.loadOrCreateSigner()
		if err != nil {
			return nil, err
		}
		handedOut.Add(1)
		pemBytes, rerr := os.ReadFile(filepath.Join(dir, keyFile))
		if priv, perr := integrity.ParsePrivateKey(pemBytes); rerr == nil && perr == nil && priv.PublicKey.Equal(signer.Public()) {
			durable.Add(1)
		}
		return signer, nil
	}
	if err := s.Start(""); err != nil {
		t.Fatal(err)
	}
	reg := register(t, s, "http://127.0.0.1:1")
	if handedOut.Load() != 1 || durable.Load() != 1 {
		t.Fatalf("key handed out %d times, %d of them already on disk; want 1/1", handedOut.Load(), durable.Load())
	}
	files, err := filepath.Glob(filepath.Join(dir, keyFile+"*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || filepath.Base(files[0]) != keyFile {
		t.Fatalf("key files after one generation: %v, want exactly %s", files, keyFile)
	}
	fi, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if perm := fi.Mode().Perm(); perm != 0o600 {
		t.Fatalf("%s mode %o, want 600", keyFile, perm)
	}
	if keyGenerations(s) != 1 {
		t.Fatalf("%d keys generated, want 1", keyGenerations(s))
	}
	s.Crash()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Start(""); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	before := keyGenerations(s2) // restored from the state blob, if one was saved
	if got := fetchPubkey(t, s2); string(got) != reg.PublicKey {
		t.Fatal("restarted proxy serves a different public key")
	}
	if keyGenerations(s2) != before {
		t.Fatal("restarted proxy generated a key instead of loading key.pem")
	}
}

// TestSigningKeyIgnoresStaleTempFile: a torn temp file left by an
// interrupted generation sits beside a valid key.pem; the proxy loads the
// valid key and generates nothing.
func TestSigningKeyIgnoresStaleTempFile(t *testing.T) {
	dir := t.TempDir()
	signer, err := integrity.NewSigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, keyFile), signer.MarshalPrivateKey(), 0o600); err != nil {
		t.Fatal(err)
	}
	torn := signer.MarshalPrivateKey()[:40]
	if err := os.WriteFile(filepath.Join(dir, keyFile+".123456.tmp"), torn, 0o600); err != nil {
		t.Fatal(err)
	}
	s, ots := startDiskProxy(t, diskTestConfig(dir))
	defer s.Close()
	ots.Close()

	want, err := integrity.MarshalPublicKey(signer.Public())
	if err != nil {
		t.Fatal(err)
	}
	if got := fetchPubkey(t, s); !bytes.Equal(got, want) {
		t.Fatal("proxy did not load the valid key.pem")
	}
	if n := keyGenerations(s); n != 0 {
		t.Fatalf("%d keys generated beside a valid key.pem, want 0", n)
	}
}

// TestSigningKeyFailureFailsClosed: while the key source fails, /register
// and /pubkey answer 500 and a registered client gets no 200 — not from the
// origin, a proxy hit, or a holder whose copy only the key could vouch for —
// while anonymous clients are served as before. The first demand after the
// fault clears succeeds, and nothing was generated meanwhile.
func TestSigningKeyFailureFailsClosed(t *testing.T) {
	o := origin.New(31)
	ots := httptest.NewServer(o.Handler())
	defer ots.Close()
	holderBody := o.Body("/held", 0, 1500)
	holder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderVersion, "0")
		w.Header().Set(HeaderWatermark, base64.StdEncoding.EncodeToString([]byte("unverifiable")))
		w.Write(holderBody)
	}))
	defer holder.Close()

	var fail atomic.Bool
	fail.Store(true)
	cfg := DefaultConfig()
	cfg.KeyBits = 1024
	s := startKeyed(t, cfg, func(s *Server) func() (*integrity.Signer, error) {
		return func() (*integrity.Signer, error) {
			if fail.Load() {
				return nil, errors.New("injected key source failure")
			}
			return s.loadOrCreateSigner()
		}
	})
	regs := seedClients(t, s, holder.URL, "http://127.0.0.1:1")
	requester := regs[1]

	resp, err := http.Post(s.BaseURL()+"/register", "application/json", strings.NewReader(`{"peer_url":"http://127.0.0.1:2"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("/register without a key: status %d, want 500", resp.StatusCode)
	}
	resp, err = http.Get(s.BaseURL() + "/pubkey")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("/pubkey without a key: status %d, want 500", resp.StatusCode)
	}

	held := ots.URL + "/held?size=1500"
	s.Index().Add(indexEntryFor(s, regs[0].ClientID, held, int64(len(holderBody))))
	doc := ots.URL + "/doc?size=3000"
	for _, c := range []struct{ path, url string }{
		{"origin miss", doc},
		{"memory hit", doc},
		{"holder copy", held},
	} {
		resp, err := registeredGet(s, requester, c.url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK || resp.Header.Get(HeaderWatermark) != "" {
			t.Errorf("%s without a key: status %d, watermark %q; want no 200 and no mark",
				c.path, resp.StatusCode, resp.Header.Get(HeaderWatermark))
		}
	}
	// The holder was asked and refused for want of the key, not as tampering.
	if st := s.Snapshot(); st.FalsePeerHits != 1 || st.TamperRejected != 0 {
		t.Errorf("holder copy without a key: false_peer_hits %d, tamper_rejected %d; want 1/0",
			st.FalsePeerHits, st.TamperRejected)
	}
	if src, _ := fetchDoc(t, s, doc); src != SourceProxy {
		t.Errorf("anonymous fetch without a key: source %q, want proxy", src)
	}
	if n := keyGenerations(s); n != 0 {
		t.Fatalf("%d keys generated while the source failed", n)
	}

	fail.Store(false)
	reg := register(t, s, "http://127.0.0.1:3")
	pub, err := integrity.ParsePublicKey([]byte(reg.PublicKey))
	if err != nil {
		t.Fatal(err)
	}
	body, _, markB64 := markedFetch(t, s, requester, doc)
	if mark, err := base64.StdEncoding.DecodeString(markB64); err != nil || integrity.Verify(pub, body, mark) != nil {
		t.Fatalf("after the fault cleared: watermark does not verify (decode err %v)", err)
	}
	if !strings.Contains(string(fetchPubkey(t, s)), "PUBLIC KEY") || keyGenerations(s) != 1 {
		t.Fatalf("after the fault cleared: %d keys generated, want 1", keyGenerations(s))
	}
}
