// Livecluster: the browsers-aware proxy system running for real — an
// in-process origin server, a live proxy with a browser index, and three
// browser agents on loopback HTTP. The demo walks through the paper's
// Figure 1 flow (local hit → proxy hit → remote-browser hit → origin),
// then demonstrates §6: a tampering peer is caught by the MD5+RSA
// watermark, and peer identities stay hidden behind the proxy.
//
//	go run ./examples/livecluster
package main

import (
	"context"
	"fmt"
	"log"
	"net/http"

	"baps"
)

func main() {
	pcfg := baps.ProxyConfig{
		CacheCapacity: 300_000, // small proxy so evictions actually happen
		MemFraction:   0.1,
		Forward:       0, // FetchForward
		CachePeerDocs: true,
		KeyBits:       1024,
	}
	cluster, err := baps.StartCluster(baps.ClusterConfig{
		Agents: 3,
		Proxy:  pcfg,
		MutateAgent: func(i int, cfg *baps.AgentConfig) {
			cfg.CacheCapacity = 4 << 20 // browsers retain generously
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()
	alice, bob, carol := cluster.Agents[0], cluster.Agents[1], cluster.Agents[2]

	// Every fetch flushes the agent's index deltas, so the proxy's browser
	// index is current before the next step (agents otherwise batch them
	// for up to 100 ms).
	fetch := func(who string, a *baps.Agent, url string) baps.Source {
		body, src, err := a.Get(ctx, url)
		if err == nil {
			err = a.FlushIndex()
		}
		if err != nil {
			log.Fatalf("%s: %v", who, err)
		}
		fmt.Printf("  %-6s GET %-34s → %-7s (%5d bytes)\n", who, url[len(cluster.DocURL("")):], src, len(body))
		return src
	}

	fmt.Println("1) Cold start: Alice fetches a page — it comes from the origin,")
	fmt.Println("   gets watermarked by the proxy, and lands in both caches.")
	doc := cluster.DocURL("/news/today?size=120000")
	fetch("alice", alice, doc)

	fmt.Println("\n2) Alice again: local browser hit. Bob: proxy hit.")
	fetch("alice", alice, doc)
	fetch("bob", bob, doc)

	fmt.Println("\n3) Carol churns through other pages until the proxy evicts /news/today…")
	for i := 0; i < 4; i++ {
		fetch("carol", carol, cluster.DocURL(fmt.Sprintf("/feed/%c?size=90000", 'a'+i)))
	}

	fmt.Println("\n4) Carol now asks for /news/today. The proxy cache has dropped it, but")
	fmt.Println("   the browser index knows Alice and Bob still hold it → peer-to-peer hit:")
	if src := fetch("carol", carol, doc); src != baps.SourceRemote {
		fmt.Println("   (note: expected a remote hit; cache sizes may need tuning)")
	}

	fmt.Println("\n5) Anonymity (§6.2): peers can never talk to each other directly —")
	fmt.Println("   the holder's peer server only answers the proxy's token:")
	resp, err := http.Get(alice.PeerURL() + "/peer/doc?url=" + doc)
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("   unauthenticated probe of Alice's peer server → HTTP %d\n", resp.StatusCode)

	fmt.Println("\n6) Integrity (§6.1): Alice turns malicious and corrupts everything she")
	fmt.Println("   serves. The proxy checks the MD5 watermark, rejects her copy, prunes")
	fmt.Println("   her index entry, and falls back to the origin:")
	alice.Tamper = func(_ string, b []byte) []byte {
		bad := append([]byte(nil), b...)
		bad[0] ^= 0xFF
		return bad
	}
	doc2 := cluster.DocURL("/private/report?size=150000")
	fetch("alice", alice, doc2)
	for i := 0; i < 4; i++ { // push it out of the proxy again
		fetch("carol", carol, cluster.DocURL(fmt.Sprintf("/feed/x%d?size=90000", i)))
	}
	if src := fetch("bob", bob, doc2); src == baps.SourceOrigin {
		fmt.Println("   → tampered peer copy rejected; Bob received the authentic document.")
	}

	st := cluster.Proxy.Snapshot()
	fmt.Printf("\nproxy stats: %d requests — %d proxy hits, %d remote-browser hits, %d origin fetches,\n",
		st.Requests, st.ProxyHits, st.RemoteHits, st.OriginFetches)
	fmt.Printf("             %d tamper rejections, %d index entries over %d clients\n",
		st.TamperRejected, st.IndexEntries, st.Clients)
}
