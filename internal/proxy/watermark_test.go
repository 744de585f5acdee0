package proxy

import (
	"bytes"
	"context"
	"crypto/md5"
	"crypto/rsa"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"strconv"
	"sync"
	"testing"
	"time"

	"baps/internal/integrity"
	"baps/internal/origin"
)

// markedFetch fetches docURL as reg and returns the body, the source header
// and the raw X-BAPS-Watermark header.
func markedFetch(t *testing.T, s *Server, reg RegisterResponse, docURL string) (body []byte, source, mark string) {
	t.Helper()
	resp, err := registeredGet(s, reg, docURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch %s: status %d, read error %v", docURL, resp.StatusCode, err)
	}
	return body, resp.Header.Get(HeaderSource), resp.Header.Get(HeaderWatermark)
}

// TestWatermarkAnonymousFetchUnsigned: a caller that can neither verify nor
// re-serve gets no watermark, on the origin-miss path and on the proxy-hit
// path alike, and costs the proxy no private-key operation.
func TestWatermarkAnonymousFetchUnsigned(t *testing.T) {
	o := origin.New(17)
	ots := httptest.NewServer(o.Handler())
	defer ots.Close()
	s := testServer(t, nil)

	u := ots.URL + "/anon/doc?size=2000"
	for _, wantSource := range []string{SourceOrigin, SourceProxy} {
		resp, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get(HeaderSource); got != wantSource {
			t.Fatalf("source = %q, want %q", got, wantSource)
		}
		if _, present := resp.Header[http.CanonicalHeaderKey(HeaderWatermark)]; present {
			t.Fatalf("anonymous %s response carries a watermark", wantSource)
		}
	}
	st := s.Snapshot()
	if st.WatermarkSigned != 0 || st.WatermarkMemoHits != 0 || st.WatermarkMemoEntries != 0 {
		t.Fatalf("anonymous traffic touched the signer: signed=%d memo_hits=%d entries=%d",
			st.WatermarkSigned, st.WatermarkMemoHits, st.WatermarkMemoEntries)
	}
}

// TestWatermarkOnDemandMatchesSigner: the watermark a registered client
// receives is Signer.WatermarkDigest(MD5(body)) byte for byte, derived with
// one signature on first demand and none afterwards — and it is visible on
// /metrics as well as /stats.
func TestWatermarkOnDemandMatchesSigner(t *testing.T) {
	o := origin.New(18)
	ots := httptest.NewServer(o.Handler())
	defer ots.Close()
	s := testServer(t, nil)
	reg := register(t, s, "http://127.0.0.1:1")

	u := ots.URL + "/signed/doc?size=3000"
	body, _, mark := markedFetch(t, s, reg, u)
	sum := md5.Sum(body)
	want, err := proxySigner(t, s).WatermarkDigest(sum[:])
	if err != nil {
		t.Fatal(err)
	}
	if mark != base64.StdEncoding.EncodeToString(want) {
		t.Fatal("served watermark differs from Signer.WatermarkDigest of the body's digest")
	}
	if _, source, again := markedFetch(t, s, reg, u); source != SourceProxy || again != mark {
		t.Fatalf("second serve: source %q, same watermark %v", source, again == mark)
	}
	st := s.Snapshot()
	if st.WatermarkSigned != 1 || st.WatermarkMemoHits != 1 || st.WatermarkMemoEntries != 1 {
		t.Fatalf("signed=%d memo_hits=%d entries=%d, want 1/1/1",
			st.WatermarkSigned, st.WatermarkMemoHits, st.WatermarkMemoEntries)
	}
	m := scrapeMetrics(t, s.BaseURL())
	for name, want := range map[string]float64{
		"baps_proxy_watermark_signed_total":    1,
		"baps_proxy_watermark_memo_hits_total": 1,
		"baps_proxy_watermark_memo_entries":    1,
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("/metrics %s = %g (present %v), want %g", name, got, ok, want)
		}
	}
}

// TestWatermarkConcurrentFirstDemandsSignOnce: 32 registered clients attach
// to an anonymous leader's in-flight resolution of one cold URL. Every one
// of them gets the (identical, verifying) watermark, the leader gets none,
// and the proxy signs exactly once.
func TestWatermarkConcurrentFirstDemandsSignOnce(t *testing.T) {
	o := origin.New(19)
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		<-release // hold the leader at the origin until every follower attached
		o.Handler().ServeHTTP(w, r)
	}))
	defer gate.Close()
	s := testServer(t, nil)
	reg := register(t, s, "http://127.0.0.1:1")
	u := gate.URL + "/herd/doc?size=5000"

	type reply struct {
		body []byte
		mark string
	}
	fetch := func(get func() (*http.Response, error), out chan<- reply) {
		resp, err := get()
		if err != nil {
			t.Errorf("fetch: %v", err)
			out <- reply{}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		out <- reply{body: body, mark: resp.Header.Get(HeaderWatermark)}
	}
	leader := make(chan reply, 1)
	go fetch(func() (*http.Response, error) {
		return http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u))
	}, leader)
	<-arrived

	const n = 32
	followers := make(chan reply, n)
	for i := 0; i < n; i++ {
		go fetch(func() (*http.Response, error) { return registeredGet(s, reg, u) }, followers)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.missFlight.Inflight() != 1 || s.m.requests.Value() < n+1 {
		if time.Now().After(deadline) {
			t.Fatal("followers never reached the proxy")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The request counter moves just before a follower attaches to the
	// flight; give the last ones a moment to park.
	time.Sleep(100 * time.Millisecond)
	close(release)

	if r := <-leader; r.mark != "" {
		t.Fatal("anonymous leader received a watermark")
	}
	pub := proxyPublicKey(t, s)
	var first string
	for i := 0; i < n; i++ {
		r := <-followers
		mark, err := base64.StdEncoding.DecodeString(r.mark)
		if err != nil || len(mark) == 0 {
			t.Fatalf("follower watermark %q: %v", r.mark, err)
		}
		if err := integrity.Verify(pub, r.body, mark); err != nil {
			t.Fatalf("follower watermark: %v", err)
		}
		if first == "" {
			first = r.mark
		} else if r.mark != first {
			t.Fatal("followers received different watermarks for one body")
		}
	}
	if got := o.Fetches(); got != 1 {
		t.Fatalf("origin fetches = %d, want 1", got)
	}
	if got := s.Snapshot().WatermarkSigned; got != 1 {
		t.Fatalf("watermark_signed = %d for %d concurrent first demands, want 1", got, n)
	}
}

// scriptedOrigin serves whatever the test last set for a path, always with a
// 200 (conditional headers are ignored): the shape of an origin that touches
// a document without changing its bytes.
type scriptedOrigin struct {
	mu      sync.Mutex
	body    map[string][]byte
	version map[string]int
	srv     *httptest.Server
}

func newScriptedOrigin(t *testing.T) *scriptedOrigin {
	o := &scriptedOrigin{body: make(map[string][]byte), version: make(map[string]int)}
	o.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		o.mu.Lock()
		body, ok := o.body[r.URL.Path]
		version := o.version[r.URL.Path]
		o.mu.Unlock()
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("X-Origin-Version", strconv.Itoa(version))
		w.Write(body)
	}))
	t.Cleanup(o.srv.Close)
	return o
}

func (o *scriptedOrigin) set(path string, body []byte, version int) {
	o.mu.Lock()
	o.body[path], o.version[path] = body, version
	o.mu.Unlock()
}

// TestWatermarkMemoAcrossReacquisition: the memo is keyed by digest, not by
// URL or version, so re-acquiring unchanged bytes — after an eviction, or
// through a revalidation that came back 200 — costs no second signature,
// while a modified document (new digest) signs again.
func TestWatermarkMemoAcrossReacquisition(t *testing.T) {
	o := newScriptedOrigin(t)
	s := testServer(t, func(c *Config) { c.CacheCapacity = 4096 })
	reg := register(t, s, "http://127.0.0.1:1")
	signed := func() int64 { return s.Snapshot().WatermarkSigned }

	u := o.srv.URL + "/doc"
	o.set("/doc", bytes.Repeat([]byte("first edition. "), 64), 0)
	_, _, mark := markedFetch(t, s, reg, u)
	if mark == "" || signed() != 1 {
		t.Fatalf("first demand: mark present %v, signed %d", mark != "", signed())
	}

	// Evict it with anonymous filler traffic (which signs nothing).
	for i := 0; i < 8; i++ {
		path := fmt.Sprintf("/filler/%d", i)
		o.set(path, bytes.Repeat([]byte{byte('a' + i)}, 1000), 0)
		resp, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(o.srv.URL+path))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if _, _, cached := s.cacheLookup(u); cached {
		t.Fatal("filler traffic did not evict the document")
	}
	_, source, again := markedFetch(t, s, reg, u)
	if source != SourceOrigin || again != mark || signed() != 1 {
		t.Fatalf("re-acquired after eviction: source %q, same mark %v, signed %d (want origin/true/1)",
			source, again == mark, signed())
	}

	// The origin bumps the version without changing a byte; the background
	// conditional GET comes back 200.
	o.set("/doc", bytes.Repeat([]byte("first edition. "), 64), 1)
	if err := s.revalidateJob(u)(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := fetchVersion(t, s, u); got != 1 {
		t.Fatalf("revalidation did not land version 1 (serving %d)", got)
	}
	if _, _, again := markedFetch(t, s, reg, u); again != mark || signed() != 1 {
		t.Fatalf("revalidation 200 with identical bytes: same mark %v, signed %d (want true/1)",
			again == mark, signed())
	}

	// A real modification is a new digest: one more signature.
	o.set("/doc", bytes.Repeat([]byte("second edition. "), 64), 2)
	if err := s.revalidateJob(u)(context.Background()); err != nil {
		t.Fatal(err)
	}
	body, _, changed := markedFetch(t, s, reg, u)
	raw, _ := base64.StdEncoding.DecodeString(changed)
	if changed == mark || integrity.Verify(proxyPublicKey(t, s), body, raw) != nil || signed() != 2 {
		t.Fatalf("modified document: new mark %v, signed %d (want true/2)", changed != mark, signed())
	}
}

// TestWatermarkMemoBounded: the memo never holds more than its cap, and an
// entry it dropped is re-derived byte-identically.
func TestWatermarkMemoBounded(t *testing.T) {
	var m integrity.Memo
	key := func(i int) [md5.Size]byte { return md5.Sum([]byte(strconv.Itoa(i))) }
	for i := 0; i < integrity.MemoCap+10; i++ {
		m.Put(key(i), strconv.Itoa(i))
	}
	if got := m.Len(); got != integrity.MemoCap {
		t.Fatalf("memo holds %d entries, cap %d", got, integrity.MemoCap)
	}
	if _, ok := m.Get(key(9)); ok {
		t.Fatal("oldest entry survived past the cap")
	}
	if mark, ok := m.Get(key(10)); !ok || mark != "10" {
		t.Fatalf("entry inside the window lost: %q %v", mark, ok)
	}

	s := testServer(t, nil)
	digest := key(0)
	first, err := s.watermarkFor(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	s.marks = integrity.Memo{} // as if evicted
	second, err := s.watermarkFor(digest[:])
	if err != nil || second != first {
		t.Fatalf("re-derived watermark differs (err %v)", err)
	}
	if _, err := s.watermarkFor([]byte("short")); err == nil {
		t.Fatal("malformed digest signed")
	}
}

// TestWatermarkSignFailureFailsClosed: when the signer fails, a registered
// client gets a 500 from every serve path — never a 200 without the
// watermark, which a verifying agent would book as a peer's tampering — and
// anonymous callers, who need no signature, are served as before.
func TestWatermarkSignFailureFailsClosed(t *testing.T) {
	pair, err := integrity.NewSigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	// A real public half, so /register can hand it out, but no private
	// exponent: every signature fails.
	broken, err := integrity.NewSignerFromKey(&rsa.PrivateKey{PublicKey: *pair.Public()})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(diskTestConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	s.keySource = func() (*integrity.Signer, error) { return broken, nil }
	if err := s.Start(""); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ots := httptest.NewServer(origin.New(23).Handler())
	defer ots.Close()
	reg := register(t, s, "http://127.0.0.1:1")

	// Anonymous traffic fills the tiers: onDisk is admitted (two hits) and
	// demoted by the two documents after it; inMem stays resident.
	onDisk := ots.URL + "/fail/a?size=16384"
	inMem := ots.URL + "/fail/c?size=16384"
	fetchDoc(t, s, onDisk)
	fetchDoc(t, s, onDisk)
	fetchDoc(t, s, ots.URL+"/fail/b?size=16384")
	fetchDoc(t, s, inMem)
	waitFor(t, "spill of onDisk", func() bool { return docSnapshot(s, onDisk).state == docDisk })

	for _, c := range []struct{ path, url string }{
		{"disk stream", onDisk},
		{"disk promote", onDisk},
		{"memory hit", inMem},
		{"origin miss", ots.URL + "/fail/cold?size=16384"},
	} {
		resp, err := registeredGet(s, reg, c.url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || len(body) >= 16384 {
			t.Errorf("%s: status %d with %d body bytes, want a bare 500", c.path, resp.StatusCode, len(body))
		}
		if resp.Header.Get(HeaderWatermark) != "" {
			t.Errorf("%s: failed response carries a watermark", c.path)
		}
	}

	if src, _ := fetchDoc(t, s, inMem); src != SourceProxy {
		t.Errorf("anonymous fetch after the failures: source %q, want proxy", src)
	}
	if st := s.Snapshot(); st.WatermarkSigned != 0 || st.WatermarkMemoEntries != 0 {
		t.Errorf("failed signatures were counted or memoised: signed=%d entries=%d", st.WatermarkSigned, st.WatermarkMemoEntries)
	}
}
