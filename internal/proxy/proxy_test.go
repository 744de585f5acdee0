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
	"testing"

	"baps/internal/integrity"
	"baps/internal/origin"
)

// testKey is the one 1024-bit watermark key every testServer proxy signs
// with, generated on first demand, so a test binary pays one RSA key
// generation however many proxies its tests start. Tests of key generation,
// key.pem persistence or a failing signer start their proxies without it.
var testKey = sync.OnceValues(func() (*integrity.Signer, error) { return integrity.NewSigner(1024) })

func testServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.KeyBits = 1024
	cfg.CacheCapacity = 1 << 20
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.keySource = testKey
	if err := s.Start(""); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func register(t testing.TB, s *Server, peerURL string) RegisterResponse {
	t.Helper()
	body, _ := json.Marshal(RegisterRequest{PeerURL: peerURL})
	resp, err := http.Post(s.BaseURL()+"/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register status %s", resp.Status)
	}
	var reg RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return reg
}

// registeredGet fetches docURL through s as the registered client reg. Only
// such a caller can verify a watermark or re-serve the document, so only its
// responses carry X-BAPS-Watermark.
func registeredGet(s *Server, reg RegisterResponse, docURL string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, s.BaseURL()+"/fetch?url="+neturl.QueryEscape(docURL), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(HeaderClient, strconv.Itoa(reg.ClientID))
	req.Header.Set(HeaderToken, reg.Token)
	return http.DefaultClient.Do(req)
}

func TestNewValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.CacheCapacity = -1 },
		func(c *Config) { c.MemFraction = 0 },
		func(c *Config) { c.MemFraction = 1.5 },
		func(c *Config) { c.KeyBits = 100 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		cfg.KeyBits = 1024
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	s := testServer(t, nil)
	// Bad JSON.
	resp, _ := http.Post(s.BaseURL()+"/register", "application/json", strings.NewReader("{"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: %d", resp.StatusCode)
	}
	// Bad peer URL.
	body, _ := json.Marshal(RegisterRequest{PeerURL: "ftp://x"})
	resp, _ = http.Post(s.BaseURL()+"/register", "application/json", bytes.NewReader(body))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad peer URL: %d", resp.StatusCode)
	}
	// GET not allowed.
	resp, _ = http.Get(s.BaseURL() + "/register")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET register: %d", resp.StatusCode)
	}
	// Two registrations get distinct ids and tokens.
	r1 := register(t, s, "http://127.0.0.1:1")
	r2 := register(t, s, "http://127.0.0.1:2")
	if r1.ClientID == r2.ClientID || r1.Token == r2.Token {
		t.Error("registrations not distinct")
	}
	if !strings.Contains(r1.PublicKey, "PUBLIC KEY") {
		t.Error("public key missing")
	}
}

func TestIndexAuthRequired(t *testing.T) {
	s := testServer(t, nil)
	reg := register(t, s, "http://127.0.0.1:1")

	delta := IndexBatch{Gen: 1, Deltas: []IndexDelta{{URL: "http://x/a", Size: 10}}}
	if r := postBatch(t, s, RegisterResponse{ClientID: reg.ClientID, Token: "wrong-token"}, delta); r.Accepted != 0 {
		t.Errorf("wrong token accepted: %+v", r)
	}
	if r := postBatch(t, s, RegisterResponse{ClientID: reg.ClientID, Token: reg.Token}, IndexBatch{}); r.Accepted != 0 {
		t.Errorf("generation 0 accepted: %+v", r)
	}
	if r := postBatch(t, s, reg, delta); r.Accepted != 1 {
		t.Errorf("valid delta rejected: %+v", r)
	}
	if !s.Index().Has(reg.ClientID, s.syms.Intern("http://x/a")) {
		t.Error("entry not indexed")
	}
	resp, err := http.Get(s.BaseURL() + "/index/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /index/batch: %d", resp.StatusCode)
	}
}

// TestIndexBodyMismatchRejected: a sub-batch whose client id is not its
// token's owner is rejected by id, while a valid sibling in the same carrier
// still applies; a malformed carrier is a bad request.
func TestIndexBodyMismatchRejected(t *testing.T) {
	s := testServer(t, nil)
	reg := register(t, s, "http://127.0.0.1:1")
	spoofed := HostBatch{Token: reg.Token, IndexBatch: IndexBatch{
		ClientID: reg.ClientID + 5, Gen: 1, Deltas: []IndexDelta{{URL: "http://x/spoof"}},
	}}
	valid := HostBatch{Token: reg.Token, IndexBatch: IndexBatch{
		ClientID: reg.ClientID, Gen: 1, Deltas: []IndexDelta{{URL: "http://x/a"}},
	}}
	r := postCarrier(t, s, spoofed, valid)
	if r.Accepted != 1 || len(r.Rejected) != 1 || r.Rejected[0] != reg.ClientID+5 {
		t.Errorf("spoofed client id: %+v", r)
	}
	if s.Index().Len() != 1 || !s.Index().Has(reg.ClientID, s.syms.Intern("http://x/a")) {
		t.Error("valid sibling not applied alone")
	}
	resp, err := http.Post(s.BaseURL()+"/index/batch", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed carrier: %d", resp.StatusCode)
	}
}

func TestFetchValidation(t *testing.T) {
	s := testServer(t, nil)
	resp, _ := http.Get(s.BaseURL() + "/fetch")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing url: %d", resp.StatusCode)
	}
	resp, _ = http.Post(s.BaseURL()+"/fetch?url=http://x", "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST fetch: %d", resp.StatusCode)
	}
	// Unreachable upstream yields 502.
	resp, _ = http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape("http://127.0.0.1:1/nope"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("dead upstream: %d", resp.StatusCode)
	}
}

func TestFetchCachesAndWatermarks(t *testing.T) {
	o := origin.New(99)
	ots := httptest.NewServer(o.Handler())
	defer ots.Close()
	s := testServer(t, nil)

	reg := register(t, s, "http://127.0.0.1:1")
	u := ots.URL + "/w/doc?size=3000"
	resp, err := registeredGet(s, reg, u)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get(HeaderSource) != SourceOrigin {
		t.Fatalf("source = %q", resp.Header.Get(HeaderSource))
	}
	markB64 := resp.Header.Get(HeaderWatermark)
	if markB64 == "" {
		t.Fatal("no watermark header")
	}
	pub, err := integrity.ParsePublicKey(fetchPubkey(t, s))
	if err != nil {
		t.Fatal(err)
	}
	mark := decodeB64(t, markB64)
	if err := integrity.Verify(pub, body, mark); err != nil {
		t.Fatalf("watermark invalid: %v", err)
	}

	// Second fetch: proxy hit, same watermark.
	resp2, err := registeredGet(s, reg, u)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get(HeaderSource) != SourceProxy {
		t.Fatalf("second source = %q", resp2.Header.Get(HeaderSource))
	}
	if got := resp2.Header.Get(HeaderWatermark); got != markB64 {
		t.Fatalf("proxy-hit watermark differs from the first serve's")
	}
	if o.Fetches() != 1 {
		t.Fatalf("origin fetched %d times", o.Fetches())
	}
	st := s.Snapshot()
	if st.Requests != 2 || st.ProxyHits != 1 || st.OriginFetches != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func fetchPubkey(t *testing.T, s *Server) []byte {
	t.Helper()
	resp, err := http.Get(s.BaseURL() + "/pubkey")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	pem, _ := io.ReadAll(resp.Body)
	return pem
}

func decodeB64(t *testing.T, s string) []byte {
	t.Helper()
	out, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRelayRejectsBadTickets(t *testing.T) {
	s := testServer(t, nil)
	resp, _ := http.Post(s.BaseURL()+"/relay/not-a-ticket", "", strings.NewReader("body"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("bad ticket: %d", resp.StatusCode)
	}
	resp, _ = http.Get(s.BaseURL() + "/relay/x")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET relay: %d", resp.StatusCode)
	}
}

func TestStatsAndHealth(t *testing.T) {
	s := testServer(t, nil)
	resp, err := http.Get(s.BaseURL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
	resp, err = http.Get(s.BaseURL() + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	resp.Body.Close()
}

// TestFullSubBatchReplacesDirectory: a Full sub-batch replaces the client's
// directory and re-seats its generation wherever the sender's numbering
// stands, so the next delta batch is the successor, not a gap.
func TestFullSubBatchReplacesDirectory(t *testing.T) {
	s := testServer(t, nil)
	reg := register(t, s, "http://127.0.0.1:1")
	full := IndexBatch{Gen: 5, Full: true, Deltas: []IndexDelta{
		{URL: "http://x/1", Size: 10}, {URL: "http://x/2", Size: 20},
	}}
	if r := postBatch(t, s, reg, full); r.Accepted != 1 {
		t.Fatalf("full sync rejected: %+v", r)
	}
	if s.Index().Len() != 2 {
		t.Fatalf("index len = %d", s.Index().Len())
	}
	if r := postBatch(t, s, reg, IndexBatch{Gen: 6, Deltas: []IndexDelta{{URL: "http://x/2", Remove: true}}}); r.Accepted != 1 {
		t.Fatalf("successor batch rejected: %+v", r)
	}
	if st := s.Snapshot(); st.IndexGenGaps != 0 || s.Index().Len() != 1 {
		t.Fatalf("after successor: gaps=%d len=%d, want 0/1", st.IndexGenGaps, s.Index().Len())
	}
	// A second sync with one entry replaces the directory again.
	if r := postBatch(t, s, reg, IndexBatch{Gen: 7, Full: true, Deltas: []IndexDelta{{URL: "http://x/3", Size: 5}}}); r.Accepted != 1 {
		t.Fatalf("re-sync rejected: %+v", r)
	}
	if s.Index().Len() != 1 || !s.Index().Has(reg.ClientID, s.syms.Intern("http://x/3")) {
		t.Fatal("re-sync did not replace directory")
	}
}
