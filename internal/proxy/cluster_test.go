package proxy

import (
	"bytes"
	"crypto/md5"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"testing"
	"time"

	"baps/internal/bloom"
	"baps/internal/federation"
	"baps/internal/integrity"
	"baps/internal/origin"
)

// federate builds n started proxies joined into one full-mesh cluster with a
// fast digest interval.
func federate(t *testing.T, n int, mutate func(*Config)) []*Server {
	t.Helper()
	proxies := make([]*Server, n)
	for i := range proxies {
		proxies[i] = testServer(t, func(c *Config) {
			c.DigestInterval = 50 * time.Millisecond
			if mutate != nil {
				mutate(c)
			}
		})
	}
	for i, s := range proxies {
		var peers []string
		for j, p := range proxies {
			if j != i {
				peers = append(peers, p.BaseURL())
			}
		}
		if err := s.JoinCluster(peers); err != nil {
			t.Fatalf("JoinCluster(%d): %v", i, err)
		}
	}
	return proxies
}

// waitCandidates polls until s's federation digests claim url at a sibling.
func waitCandidates(t *testing.T, s *Server, url string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if cands := s.Cluster().Candidates(url); len(cands) > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no sibling digest ever claimed %s", url)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterRelayFromSiblingCache: a document cached at proxy A reaches a
// client of proxy B through the digest → locate → cluster-hop pipeline, with
// no second origin fetch and a watermark derived under B's own key.
func TestClusterRelayFromSiblingCache(t *testing.T) {
	o := origin.New(11)
	ots := httptest.NewServer(o.Handler())
	defer ots.Close()
	ps := federate(t, 2, nil)
	a, b := ps[0], ps[1]

	u := ots.URL + "/cluster/doc?size=4000"
	resp, err := http.Get(a.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get(HeaderSource) != SourceOrigin {
		t.Fatalf("first fetch source = %q, want origin", resp.Header.Get(HeaderSource))
	}

	waitCandidates(t, b, u)
	resp, err = registeredGet(b, register(t, b, "http://127.0.0.1:1"), u)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster fetch status %d", resp.StatusCode)
	}
	if src := resp.Header.Get(HeaderSource); src != SourceCluster {
		t.Fatalf("source = %q, want %q", src, SourceCluster)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("relayed body differs (%d vs %d bytes)", len(got), len(want))
	}
	if n := o.Fetches(); n != 1 {
		t.Fatalf("origin fetched %d times, want 1 (cluster should have absorbed the second)", n)
	}
	// B derives the watermark for its own client: it must verify under
	// B's key (A's signature would not), and the hop itself — an anonymous
	// origin fetch at A, then a cluster-hop serve — cost A no signature.
	if n := a.Snapshot().WatermarkSigned; n != 0 {
		t.Fatalf("A signed %d watermarks serving an anonymous client and a sibling, want 0", n)
	}
	mark, err := base64.StdEncoding.DecodeString(resp.Header.Get(HeaderWatermark))
	if err != nil {
		t.Fatal(err)
	}
	sum := md5.Sum(got)
	if err := integrity.VerifyDigest(proxyPublicKey(t, b), sum[:], mark); err != nil {
		t.Fatalf("relayed watermark does not verify under B's key: %v", err)
	}

	// B cached the relay (CachePeerDocs): next fetch is a local hit.
	resp, err = http.Get(b.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if src := resp.Header.Get(HeaderSource); src != SourceProxy {
		t.Fatalf("post-relay source = %q, want proxy", src)
	}

	// Accounting: requester counted a cluster fetch, sibling a cluster
	// serve that did NOT inflate its client-facing request counter.
	bs, as := b.Snapshot(), a.Snapshot()
	if bs.ClusterFetches != 1 {
		t.Fatalf("B cluster_fetches = %d, want 1", bs.ClusterFetches)
	}
	if as.ClusterServes != 1 || as.ClusterServeHits != 1 {
		t.Fatalf("A cluster serves = %d/%d, want 1/1", as.ClusterServes, as.ClusterServeHits)
	}
	if as.Requests != 1 {
		t.Fatalf("A requests = %d, want 1 (cluster hops must not count)", as.Requests)
	}
	if bs.Federation == nil || len(bs.Federation.Siblings) != 1 || bs.Federation.Siblings[0].Fetches != 1 {
		t.Fatalf("B federation snapshot missing the sibling fetch: %+v", bs.Federation)
	}
}

// TestClusterHopDoesNotCascade: a cluster-hop request for a document nobody
// holds answers 404 without touching the receiver's own cluster tier or the
// origin — the loop/cascade guard.
func TestClusterHopDoesNotCascade(t *testing.T) {
	o := origin.New(3)
	ots := httptest.NewServer(o.Handler())
	defer ots.Close()
	ps := federate(t, 2, nil)

	req, _ := http.NewRequest(http.MethodGet, ps[0].BaseURL()+"/fetch?url="+neturl.QueryEscape(ots.URL+"/absent"), nil)
	req.Header.Set(HeaderClusterHop, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cluster-hop miss status %d, want 404", resp.StatusCode)
	}
	if o.Fetches() != 0 {
		t.Fatal("cluster-hop miss reached the origin")
	}
	st := ps[0].Snapshot()
	if st.ClusterServes != 1 || st.ClusterServeHits != 0 {
		t.Fatalf("serves = %d/%d, want 1/0", st.ClusterServes, st.ClusterServeHits)
	}
	if st.Requests != 0 {
		t.Fatalf("requests = %d, want 0", st.Requests)
	}
}

// TestClusterBloomFalsePositive: a digest that wrongly claims a URL costs one
// locate round trip, is accounted as a false positive on both sides, and the
// request falls through to the origin.
func TestClusterBloomFalsePositive(t *testing.T) {
	o := origin.New(5)
	ots := httptest.NewServer(o.Handler())
	defer ots.Close()
	// A slow interval keeps A's real (empty) digests from overwriting the
	// hand-fed one mid-test.
	ps := federate(t, 2, func(c *Config) { c.DigestInterval = time.Hour })
	a, b := ps[0], ps[1]

	u := ots.URL + "/fp/doc"
	// A announces its (empty) digest once on joining; let that land first,
	// or it overwrites the hand-fed one.
	waitFor(t, "A's join-time digest push", func() bool {
		fs := a.Cluster().Snapshot()
		return fs.DigestsSent+fs.PushFailures >= 1
	})
	// Hand-feed B a digest from A claiming u (A holds nothing).
	f, err := bloom.NewFilterForFPR(64, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	f.Add(u)
	raw, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Cluster().ObserveDocs(a.BaseURL(), raw, 1); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(b.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if src := resp.Header.Get(HeaderSource); src != SourceOrigin {
		t.Fatalf("source = %q, want origin after FP", src)
	}
	if o.Fetches() != 1 {
		t.Fatalf("origin fetches = %d, want 1", o.Fetches())
	}
	fs := b.Cluster().Snapshot()
	if len(fs.Siblings) != 1 || fs.Siblings[0].FalsePositives != 1 {
		t.Fatalf("requester FP accounting missing: %+v", fs.Siblings)
	}
	if a.Snapshot().ClusterLocateFPs != 1 {
		t.Fatalf("sibling locate-FP counter = %d, want 1", a.Snapshot().ClusterLocateFPs)
	}
}

// TestClusterServesFromSiblingBrowser: a document held only by one of A's
// browsers still reaches B's clients — the cluster hop walks A's browser
// index under forced fetch-forward.
func TestClusterServesFromSiblingBrowser(t *testing.T) {
	ps := federate(t, 2, func(c *Config) { c.CachePeerDocs = false })
	a, b := ps[0], ps[1]

	const body = "browser-held document body"
	u := "http://origin.invalid/browser/only"
	sum := md5.Sum([]byte(body))
	mark, err := proxySigner(t, a).WatermarkDigest(sum[:])
	if err != nil {
		t.Fatal(err)
	}
	browser := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/peer/doc" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set(HeaderVersion, "0")
		w.Header().Set(HeaderWatermark, base64.StdEncoding.EncodeToString(mark))
		fmt.Fprint(w, body)
	}))
	defer browser.Close()

	reg := register(t, a, browser.URL)
	addIndexEntry(t, a, reg, u, int64(len(body)))

	waitCandidates(t, b, u)
	resp, err := http.Get(b.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if src := resp.Header.Get(HeaderSource); src != SourceCluster {
		t.Fatalf("source = %q, want cluster", src)
	}
	if string(got) != body {
		t.Fatalf("body = %q", got)
	}
	_ = reg
}

// TestPeerEndpointsRequireFederation: /peer/digest and /peer/locate answer
// 503 on an unfederated proxy.
func TestPeerEndpointsRequireFederation(t *testing.T) {
	s := testServer(t, nil)
	resp, err := http.Post(s.BaseURL()+"/peer/digest", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("digest status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(s.BaseURL() + "/peer/locate?url=http://x/y")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("locate status %d, want 503", resp.StatusCode)
	}
}

// TestFetchPacerBoundsRate: MaxFetchRPS caps client-facing throughput.
func TestFetchPacerBoundsRate(t *testing.T) {
	o := origin.New(9)
	ots := httptest.NewServer(o.Handler())
	defer ots.Close()
	s := testServer(t, func(c *Config) { c.MaxFetchRPS = 50 })

	u := ots.URL + "/paced/doc"
	start := time.Now()
	const n = 20
	for i := 0; i < n; i++ {
		resp, err := http.Get(s.BaseURL() + "/fetch?url=" + neturl.QueryEscape(u))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	elapsed := time.Since(start)
	// 20 requests at 50/s reserve slots spanning ≥ 19 × 20ms = 380ms.
	if elapsed < 300*time.Millisecond {
		t.Fatalf("%d paced requests finished in %v; pacer not limiting", n, elapsed)
	}
}

// TestPeerDigestAcceptsLargeDirectory: /peer/digest reads bodies up to its
// own 16 MiB cap. A sibling with 700 000 URLs sends a 1% Bloom digest of
// about 1.1 MB, which a 1 MiB read limit would turn into a 400 on every push.
func TestPeerDigestAcceptsLargeDirectory(t *testing.T) {
	sib := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer sib.Close()
	s := testServer(t, func(c *Config) { c.DigestInterval = time.Hour })
	if err := s.JoinCluster([]string{sib.URL}); err != nil {
		t.Fatal(err)
	}
	const docs = 700_000
	f, err := bloom.NewFilterForFPR(docs, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	const u = "http://o/held"
	f.Add(u)
	raw, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(federation.DigestMsg{From: sib.URL, Digest: base64.StdEncoding.EncodeToString(raw), Docs: docs})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) <= 1<<20 {
		t.Fatalf("digest body is %d bytes, want more than 1 MiB", len(body))
	}
	resp, err := http.Post(s.BaseURL()+"/peer/digest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("digest push status %d, want 204", resp.StatusCode)
	}
	if cands := s.Cluster().Candidates(u); len(cands) != 1 || cands[0] != sib.URL {
		t.Fatalf("candidates for %s = %v, want the sibling", u, cands)
	}
}
