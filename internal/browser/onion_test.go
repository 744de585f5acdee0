package browser

import (
	"bytes"
	"context"
	"encoding/base64"
	"net/http"
	"strings"
	"testing"

	"baps/internal/proxy"
)

func onionProxyConfig(relays int) proxy.Config {
	cfg := testProxyConfig(proxy.OnionForward)
	cfg.OnionRelays = relays
	return cfg
}

func TestOnionForwardEndToEnd(t *testing.T) {
	// 4 agents: holder, requester, and two relay candidates.
	c := startCluster(t, 4, onionProxyConfig(1), func(ac *Config) {
		ac.CacheCapacity = 8 << 20
	})
	ctx := context.Background()
	u := c.url("/doc/onion?size=15000")

	want := getFlushed(t, c.agents[0], u)
	forceProxyEviction(t, c, c.agents[3], 2<<20)

	got, src, err := c.agents[1].Get(ctx, u)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if src != SourceRemote {
		t.Fatalf("source = %v, want remote", src)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("onion delivery corrupted the body")
	}
	// The body must not have entered the proxy cache.
	st := c.proxy.Snapshot()
	if st.RemoteHits != 1 {
		t.Fatalf("remote hits = %d", st.RemoteHits)
	}
	// A relay really participated: exactly one of agents 2/3 relayed.
	relayed := c.agents[2].Snapshot().OnionRelayed + c.agents[3].Snapshot().OnionRelayed
	if relayed != 1 {
		t.Fatalf("relayed hops = %d, want 1", relayed)
	}
	// Holder served; requester cached the doc for later local hits.
	if c.agents[0].Snapshot().PeerServes != 1 {
		t.Fatal("holder did not serve")
	}
	if _, src, _ := c.agents[1].Get(ctx, u); src != SourceLocal {
		t.Fatalf("requester did not cache onion delivery: %v", src)
	}
}

func TestOnionForwardZeroRelays(t *testing.T) {
	c := startCluster(t, 2, onionProxyConfig(0), func(ac *Config) {
		ac.CacheCapacity = 8 << 20
	})
	ctx := context.Background()
	u := c.url("/doc/onion0?size=9000")
	getFlushed(t, c.agents[0], u)
	forceProxyEviction(t, c, c.agents[0], 2<<20)
	_, src, err := c.agents[1].Get(ctx, u)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if src != SourceRemote {
		t.Fatalf("source = %v, want remote", src)
	}
}

func TestOnionForwardTamperDetected(t *testing.T) {
	c := startCluster(t, 3, onionProxyConfig(1), func(ac *Config) {
		ac.CacheCapacity = 8 << 20
	})
	ctx := context.Background()
	u := c.url("/doc/onion-tamper?size=8000")
	want := getFlushed(t, c.agents[0], u)
	c.agents[0].Tamper = func(_ string, b []byte) []byte {
		bad := append([]byte(nil), b...)
		bad[0] ^= 0x01
		return bad
	}
	forceProxyEviction(t, c, c.agents[2], 2<<20)

	got, src, err := c.agents[1].Get(ctx, u)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	// The requester verifies the watermark on the onion payload, rejects
	// it, and retries with peers bypassed.
	if src != SourceOrigin {
		t.Fatalf("source = %v, want origin after tamper rejection", src)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("requester kept tampered content")
	}
	if c.agents[1].Snapshot().TamperSeen != 1 {
		t.Fatal("tamper not recorded")
	}
}

func TestOnionUnsolicitedDeliveryRejected(t *testing.T) {
	c := startCluster(t, 2, onionProxyConfig(1), nil)
	// A random POST to /peer/onion without a valid route layer for this
	// agent must be refused: outsiders cannot inject documents.
	req, err := http.NewRequest(http.MethodPost, c.agents[0].PeerURL()+"/peer/onion",
		strings.NewReader("garbage-payload"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(proxy.HeaderOnionRoute, base64.StdEncoding.EncodeToString([]byte("not-a-valid-onion-layer-at-all-0123456789")))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unsolicited onion accepted: %d", resp.StatusCode)
	}
	// Missing route header is a bad request.
	resp2, err := http.Post(c.agents[0].PeerURL()+"/peer/onion", "", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing route header: %d", resp2.StatusCode)
	}
}

func TestOnionSendRequiresToken(t *testing.T) {
	c := startCluster(t, 2, onionProxyConfig(1), nil)
	resp, err := http.Post(c.agents[0].PeerURL()+"/peer/onion-send", "application/json",
		strings.NewReader(`{"url":"x","first_addr":"http://y"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("onion-send without token: %d", resp.StatusCode)
	}
}
