package browser

import (
	"bytes"
	"context"
	"encoding/base64"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"

	"baps/internal/origin"
	"baps/internal/proxy"
)

// tamperGateway fronts the proxy for a set of agents: while armed it flips a
// byte in the next /fetch body it relays, so a delivery the proxy vouched
// for reaches the requester altered; while a mark is set it replaces the
// next /fetch response's watermark with it.
type tamperGateway struct {
	armed atomic.Bool
	mark  atomic.Pointer[[]byte]
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
	// No pooled connections: a proxy restarted on the same address gets a
	// fresh dial.
	rp.Transport = &http.Transport{DisableKeepAlives: true}
	rp.ModifyResponse = func(resp *http.Response) error {
		if resp.Request.URL.Path != "/fetch" || resp.StatusCode != http.StatusOK {
			return nil
		}
		if mark := g.mark.Swap(nil); mark != nil {
			resp.Header.Set(proxy.HeaderWatermark, base64.StdEncoding.EncodeToString(*mark))
		}
		if !g.armed.CompareAndSwap(true, false) {
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
			// The requester's /report-bad counts at the proxy only when it
			// names a delivered relay session. A fetch-forward response
			// carries no ticket, so there the report is unattributed and
			// books nothing; tamper_seen above is the requester's record.
			booked := int64(1)
			if mode.forward == proxy.FetchForward {
				booked = 0
			}
			if d := c.proxy.Snapshot().TamperRejected - rejected; d != booked {
				t.Fatalf("proxy booked %d rejections, want %d", d, booked)
			}
		})
	}
}

// TestVerifyMemoRejectsAlteredMark: with the genuine pair memoised, the
// genuine body under an altered or truncated watermark still fails (the
// memo hits only on byte-identical marks), and the retry's genuine mark is
// then a memo hit; both counters are on /metrics.
func TestVerifyMemoRejectsAlteredMark(t *testing.T) {
	c := startCluster(t, 0, testProxyConfig(proxy.FetchForward), nil)
	gw := newTamperGateway(t, c.proxy.BaseURL())
	acfg := DefaultConfig(gw.srv.URL)
	acfg.CacheCapacity = 1 << 20
	a, err := New(acfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	ctx := context.Background()
	u := c.url("/doc/altered-mark?size=5000")
	if _, _, err := a.Get(ctx, u); err != nil {
		t.Fatal(err)
	}
	d := cachedCopy(t, a, u)
	altered := append([]byte(nil), d.watermark...)
	altered[7] ^= 0x01
	truncated := d.watermark[:len(d.watermark)-1]
	for _, mark := range [][]byte{altered, truncated} {
		a.Evict(u)
		gw.mark.Store(&mark)
		if got, _, err := a.Get(ctx, u); err != nil || !bytes.Equal(got, d.body) {
			t.Fatalf("genuine body with a bad mark: err=%v, retry returned the genuine body %v", err, bytes.Equal(got, d.body))
		}
	}
	m := a.Snapshot()
	if m.TamperSeen != 2 || m.WatermarkVerifies != 3 || m.VerifyMemoHits != 2 {
		t.Fatalf("tamper_seen=%d verifies=%d memo_hits=%d, want 2/3/2", m.TamperSeen, m.WatermarkVerifies, m.VerifyMemoHits)
	}

	scraped := scrapeMetrics(t, a)
	for name, want := range map[string]string{
		"baps_browser_watermark_verified_total":         "3",
		"baps_browser_watermark_verify_memo_hits_total": "2",
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
	gw := newTamperGateway(t, p1.BaseURL())
	h := startHost(t, &cluster{proxy: p1}, func(ac *Config) { ac.ProxyURL = gw.srv.URL })
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
	after.Evict(u)
	gw.mark.Store(&old.watermark)
	if got, _, err := after.Get(ctx, u); err != nil || !bytes.Equal(got, old.body) {
		t.Fatalf("old-key mark: err=%v, retry returned the same bytes %v", err, bytes.Equal(got, old.body))
	}
	if m := after.Snapshot(); m.TamperSeen != 1 || m.WatermarkVerifies != 2 || m.VerifyMemoHits != 1 {
		t.Fatalf("old-key mark: tamper_seen=%d verifies=%d memo_hits=%d, want 1/2/1", m.TamperSeen, m.WatermarkVerifies, m.VerifyMemoHits)
	}
}
