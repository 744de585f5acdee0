// Anonymity: the §6.2 protocol live. Under direct-forward the proxy is an
// anonymizing relay: it tells the holder to push the document to a one-time
// relay drop on the proxy, and streams the push to the requester. The holder
// learns only the relay URL, the requester learns only that the page came
// from a remote browser, and the MD5+RSA watermark still verifies
// end-to-end at the requester. Every claim is checked; the run fails if one
// does not hold.
//
//	go run ./examples/anonymity
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"

	"baps"
)

// sendRecorder is the proxy's outbound transport: it keeps every /peer/send
// instruction, which is all a holder's peer server is told.
type sendRecorder struct {
	mu    sync.Mutex
	sends []peerSend
}

// peerSend is one recorded /peer/send: the holder's peer URL it went to and
// its body.
type peerSend struct {
	holder string
	body   []byte
}

func (r *sendRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	if holder, ok := strings.CutSuffix(req.URL.Path, "/peer/send"); ok && req.Body != nil {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		r.mu.Lock()
		r.sends = append(r.sends, peerSend{holder: "http://" + req.URL.Host + holder, body: body})
		r.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(req)
}

func main() {
	rec := &sendRecorder{}
	cluster, err := baps.StartCluster(baps.ClusterConfig{
		Agents: 3, // holder, requester, and one browser that churns the proxy
		Proxy: baps.ProxyConfig{
			CacheCapacity: 250_000, // small proxy: evictions create P2P traffic
			MemFraction:   0.1,
			Forward:       baps.ForwardDirect,
			KeyBits:       1024,
			Transport:     rec,
		},
		MutateAgent: func(i int, cfg *baps.AgentConfig) {
			cfg.CacheCapacity = 8 << 20
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()
	alice, bob, erin := cluster.Agents[0], cluster.Agents[1], cluster.Agents[2]

	fmt.Println("Setting: three browsers behind one browsers-aware proxy; delivery mode is")
	fmt.Println("direct-forward through the proxy's one-time relay drop.")

	doc := cluster.DocURL("/medical/record?size=100000")
	fmt.Println("\n1) Alice fetches a sensitive page (origin → proxy → Alice):")
	if _, src, err := alice.Get(ctx, doc); err != nil || src != baps.SourceOrigin {
		log.Fatalf("alice: source %q, err %v; want origin", src, err)
	}
	// Ship Alice's index delta now (agents batch them for up to 100 ms), so
	// the proxy knows she holds the page before Bob asks.
	if err := alice.FlushIndex(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("   alice ← origin (proxy watermarked and cached it)")

	fmt.Println("\n2) Erin churns the proxy cache until the page is evicted there…")
	for i := 0; i < 4; i++ {
		if _, _, err := erin.Get(ctx, cluster.DocURL(fmt.Sprintf("/noise/%d?size=80000", i))); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("\n3) Bob requests the page. The index knows Alice still holds it, so the")
	fmt.Println("   proxy opens a relay drop and tells Alice to push there:")
	before := bob.Snapshot()
	body, src, err := bob.Get(ctx, doc)
	if err != nil {
		log.Fatal(err)
	}
	after := bob.Snapshot()
	verified := after.WatermarkVerifies + after.VerifyMemoHits - before.WatermarkVerifies - before.VerifyMemoHits
	if src != baps.SourceRemote || verified != 1 || after.TamperSeen != 0 {
		log.Fatalf("bob: source %q, %d watermark checks, %d rejected; want remote, 1, 0", src, verified, after.TamperSeen)
	}
	fmt.Printf("   bob ← %s (%d bytes, watermark verified); he is never told who held it\n", src, len(body))

	fmt.Println("\n4) What Alice's peer server was told:")
	rec.mu.Lock()
	sends := append([]peerSend(nil), rec.sends...)
	rec.mu.Unlock()
	if len(sends) != 1 {
		log.Fatalf("%d /peer/send instructions, want 1", len(sends))
	}
	send := sends[0]
	// Any field beyond the document and the relay URL fails the decode.
	var told struct {
		URL      string `json:"url"`
		RelayURL string `json:"relay_url"`
	}
	dec := json.NewDecoder(bytes.NewReader(send.body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&told); err != nil || send.holder != alice.PeerURL() ||
		!strings.HasPrefix(told.RelayURL, cluster.Proxy.BaseURL()+"/relay/") ||
		bytes.Contains(send.body, []byte(bob.PeerURL())) {
		log.Fatalf("holder %s was sent %s (%v); want only the document and a relay URL on the proxy", send.holder, send.body, err)
	}
	fmt.Printf("   url       = %s\n   relay_url = %s\n", told.URL, told.RelayURL)
	fmt.Println("   — the proxy's drop point and a one-time ticket, nothing about Bob.")

	fmt.Println("\n5) The proxy's /stats books the hit as a remote one:")
	resp, err := http.Get(cluster.Proxy.BaseURL() + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	var st baps.ProxyStats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	if st.RemoteHits != 1 || st.RelayTimeouts != 0 {
		log.Fatalf("proxy stats: remote_hits %d relay_timeouts %d; want 1, 0", st.RemoteHits, st.RelayTimeouts)
	}
	fmt.Printf("   remote_hits = %d, relay_timeouts = %d\n", st.RemoteHits, st.RelayTimeouts)

	fmt.Println("\n6) Peer servers refuse everyone but the proxy, so nobody can probe who")
	fmt.Println("   holds what:")
	resp, err = http.Get(alice.PeerURL() + "/peer/doc?url=" + doc)
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		log.Fatalf("unauthenticated peer fetch: status %d, want 403", resp.StatusCode)
	}
	fmt.Printf("   GET alice/peer/doc without the proxy's token → %s\n", resp.Status)

	fmt.Println("\nThe paper's §6.2 properties hold end-to-end: mutual requester/holder")
	fmt.Println("anonymity, with the proxy as the one party that knows both.")
}
