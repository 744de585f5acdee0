package browser

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"baps/internal/origin"
	"baps/internal/proxy"
)

// tamperGateway fronts the proxy for a set of agents: while armed it flips a
// byte in the next /fetch body it relays, so a delivery the proxy vouched
// for reaches the requester altered.
type tamperGateway struct {
	armed atomic.Bool
	srv   *httptest.Server
}

func newTamperGateway(t *testing.T, proxyURL string) *tamperGateway {
	t.Helper()
	target, err := url.Parse(proxyURL)
	if err != nil {
		t.Fatal(err)
	}
	g := &tamperGateway{}
	rp := httputil.NewSingleHostReverseProxy(target)
	rp.ModifyResponse = func(resp *http.Response) error {
		if resp.Request.URL.Path != "/fetch" || resp.StatusCode != http.StatusOK || !g.armed.CompareAndSwap(true, false) {
			return nil
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		body[0] ^= 0xFF
		resp.Body = io.NopCloser(bytes.NewReader(body))
		return nil
	}
	g.srv = httptest.NewServer(rp)
	t.Cleanup(g.srv.Close)
	return g
}

// pushDoc POSTs a /cache/push to a (as the proxy would) and returns the
// status code.
func pushDoc(t *testing.T, a *Agent, docURL string, body, mark []byte, version int64) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, a.PeerURL()+"/cache/push?url="+url.QueryEscape(docURL), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(proxy.HeaderToken, a.token)
	req.Header.Set(proxy.HeaderWatermark, base64.StdEncoding.EncodeToString(mark))
	req.Header.Set(proxy.HeaderVersion, strconv.FormatInt(version, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// cachedCopy returns a's cached body, watermark and version for docURL.
func cachedCopy(t *testing.T, a *Agent, docURL string) cachedDoc {
	t.Helper()
	a.mu.Lock()
	d, ok := a.docs[docURL]
	a.mu.Unlock()
	if !ok {
		t.Fatalf("%s not cached", docURL)
	}
	return d
}

// TestVerifyMemoStillDetectsTamper: a host's memo already holds the genuine
// (digest, watermark) pair when altered bytes arrive for a sibling agent.
// The altered body has another digest, so it takes the full check and
// fails; the agent counts it, files /report-bad and retries without peers,
// and the verified retry is a memo hit. Under direct-forward a Tamper holder
// alters what it pushes, which only the requester can see. Under
// fetch-forward the proxy's digest check stops a tampering holder before the
// requester sees anything (TestWatermarkTamperDetectionFetchForward), so the
// bytes are altered after the proxy instead, on the way to the requester.
func TestVerifyMemoStillDetectsTamper(t *testing.T) {
	for _, mode := range []struct {
		name    string
		forward proxy.ForwardMode
	}{{"fetch-forward", proxy.FetchForward}, {"direct-forward", proxy.DirectForward}} {
		t.Run(mode.name, func(t *testing.T) {
			c := startCluster(t, 2, testProxyConfig(mode.forward), func(ac *Config) {
				ac.CacheCapacity = 8 << 20
			})
			holder, filler := c.agents[0], c.agents[1]
			gw := newTamperGateway(t, c.proxy.BaseURL())
			h := startHost(t, c, func(ac *Config) {
				ac.ProxyURL = gw.srv.URL
				ac.CacheCapacity = 8 << 20
			})
			first, err := h.Spawn()
			if err != nil {
				t.Fatal(err)
			}
			second, err := h.Spawn()
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			u := c.url("/doc/warm-memo?size=8000")

			want := getFlushed(t, holder, u)
			forceProxyEviction(t, c, filler, 2<<20)
			if got, src, err := first.Get(ctx, u); err != nil || src != SourceRemote || !bytes.Equal(got, want) {
				t.Fatalf("warming fetch: src=%v err=%v equal=%v", src, err, bytes.Equal(got, want))
			}
			// The holder is again the only copy the index names.
			first.Evict(u)
			if err := first.FlushIndex(); err != nil {
				t.Fatal(err)
			}

			if mode.forward == proxy.DirectForward {
				holder.mu.Lock() // the holder already served a peer; its handlers read Tamper under mu
				holder.Tamper = func(_ string, b []byte) []byte {
					bad := append([]byte(nil), b...)
					bad[len(bad)-1] ^= 0x55
					return bad
				}
				holder.mu.Unlock()
			} else {
				gw.armed.Store(true)
			}
			rejected := c.proxy.Snapshot().TamperRejected
			got, src, err := second.Get(ctx, u)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("tampered delivery: err=%v, genuine body %v", err, bytes.Equal(got, want))
			}
			if src == SourceRemote {
				t.Fatal("the retry did not bypass peers")
			}
			if gw.armed.Load() {
				t.Fatal("the gateway never altered a delivery")
			}
			if m := first.Snapshot(); m.WatermarkVerifies != 1 || m.VerifyMemoHits != 0 {
				t.Fatalf("warming agent: verifies=%d memo_hits=%d, want 1/0", m.WatermarkVerifies, m.VerifyMemoHits)
			}
			m := second.Snapshot()
			if m.TamperSeen != 1 || m.WatermarkVerifies != 1 || m.VerifyMemoHits != 1 {
				t.Fatalf("requester: tamper_seen=%d verifies=%d memo_hits=%d, want 1/1/1 (altered body rejected by RSA, retry a memo hit)",
					m.TamperSeen, m.WatermarkVerifies, m.VerifyMemoHits)
			}
			if d := c.proxy.Snapshot().TamperRejected - rejected; d != 1 {
				t.Fatalf("proxy booked %d rejections, want the one /report-bad", d)
			}
		})
	}
}

// TestVerifyMemoRejectsAlteredMark: with the genuine pair memoised, the
// genuine body under an altered or truncated watermark still fails (the
// memo hits only on byte-identical marks), and the genuine mark is then a
// memo hit; both counters are on /metrics.
func TestVerifyMemoRejectsAlteredMark(t *testing.T) {
	c := startCluster(t, 1, testProxyConfig(proxy.FetchForward), nil)
	a := c.agents[0]
	u := c.url("/doc/altered-mark?size=5000")
	if _, _, err := a.Get(context.Background(), u); err != nil {
		t.Fatal(err)
	}
	d := cachedCopy(t, a, u)
	altered := append([]byte(nil), d.watermark...)
	altered[7] ^= 0x01
	for _, mark := range [][]byte{altered, d.watermark[:len(d.watermark)-1]} {
		if code := pushDoc(t, a, u, d.body, mark, d.version); code != http.StatusBadRequest {
			t.Fatalf("genuine body with a bad mark: status %d, want 400", code)
		}
	}
	if code := pushDoc(t, a, u, d.body, d.watermark, d.version); code != http.StatusNoContent {
		t.Fatalf("genuine pair: status %d, want 204", code)
	}
	m := a.Snapshot()
	if m.TamperSeen != 2 || m.WatermarkVerifies != 3 || m.VerifyMemoHits != 1 {
		t.Fatalf("tamper_seen=%d verifies=%d memo_hits=%d, want 2/3/1", m.TamperSeen, m.WatermarkVerifies, m.VerifyMemoHits)
	}

	resp, err := http.Get(a.PeerURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scraped := map[string]string{}
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		if name, value, ok := strings.Cut(sc.Text(), " "); ok && !strings.HasPrefix(name, "#") {
			scraped[name] = value
		}
	}
	for name, want := range map[string]string{
		"baps_browser_watermark_verified_total":         "3",
		"baps_browser_watermark_verify_memo_hits_total": "1",
	} {
		if scraped[name] != want {
			t.Errorf("/metrics %s = %q, want %s", name, scraped[name], want)
		}
	}
}

// TestVerifyMemoSharedByHostedAgents: 16 agents on one host fetching one
// document pay one RSA verification between them.
func TestVerifyMemoSharedByHostedAgents(t *testing.T) {
	c := startCluster(t, 0, testProxyConfig(proxy.FetchForward), nil)
	h := startHost(t, c, nil)
	u := c.url("/doc/one-for-all?size=6000")
	var verifies, hits int64
	for i := 0; i < 16; i++ {
		a, err := h.Spawn()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := a.Get(context.Background(), u); err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
		m := a.Snapshot()
		if m.TamperSeen != 0 {
			t.Fatalf("agent %d rejected the watermark", i)
		}
		verifies += m.WatermarkVerifies
		hits += m.VerifyMemoHits
	}
	if verifies != 1 || hits != 15 {
		t.Fatalf("16 agents, one document: %d RSA verifications and %d memo hits, want 1/15", verifies, hits)
	}
}

// TestVerifyMemoScopedToProxyKey: the proxy crashes and comes back on the
// same address without a data directory, so with a new key. Agents spawned
// afterwards on the same host get a fresh verifier: a new-key watermark
// costs one RSA operation, and an old-key watermark for the same bytes —
// which the old memo would have accepted — is rejected.
func TestVerifyMemoScopedToProxyKey(t *testing.T) {
	ots := httptest.NewServer(origin.New(24).Handler())
	t.Cleanup(ots.Close)
	cfg := testProxyConfig(proxy.FetchForward)
	p1, err := proxy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Start(""); err != nil {
		t.Fatal(err)
	}
	crashed := false
	t.Cleanup(func() {
		if !crashed {
			p1.Close()
		}
	})
	h := startHost(t, &cluster{proxy: p1}, nil)
	ctx := context.Background()
	u := ots.URL + "/doc/rekeyed?size=7000"

	before, err := h.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := before.Get(ctx, u); err != nil {
		t.Fatal(err)
	}
	old := cachedCopy(t, before, u)

	p1.Crash()
	crashed = true
	h.client.CloseIdleConnections()
	p2, err := proxy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Start(strings.TrimPrefix(p1.BaseURL(), "http://")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p2.Close() })

	after, err := h.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := h.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	if after.verifier == before.verifier || sibling.verifier != after.verifier {
		t.Fatal("the host did not start one fresh verifier for the new key")
	}
	if _, _, err := after.Get(ctx, u); err != nil {
		t.Fatal(err)
	}
	if m := after.Snapshot(); m.WatermarkVerifies != 1 || m.VerifyMemoHits != 0 || m.TamperSeen != 0 {
		t.Fatalf("new-key mark: verifies=%d memo_hits=%d tamper_seen=%d, want 1/0/0", m.WatermarkVerifies, m.VerifyMemoHits, m.TamperSeen)
	}
	if bytes.Equal(cachedCopy(t, after, u).watermark, old.watermark) {
		t.Fatal("the restarted proxy signed with the old key")
	}
	if code := pushDoc(t, after, u, old.body, old.watermark, old.version); code != http.StatusBadRequest {
		t.Fatalf("old-key mark: status %d, want 400", code)
	}
	if m := after.Snapshot(); m.TamperSeen != 1 || m.WatermarkVerifies != 2 {
		t.Fatalf("old-key mark: tamper_seen=%d verifies=%d, want 1/2", m.TamperSeen, m.WatermarkVerifies)
	}
}
