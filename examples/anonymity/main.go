// Anonymity: the §6.2 protocols live. Documents travel browser-to-browser
// over an onion-routed covert path: the holder learns one relay address,
// each relay learns only its neighbors, the requester learns nothing, and
// the body never enters the proxy — yet the MD5+RSA watermark still
// verifies end-to-end at the requester.
//
//	go run ./examples/anonymity
package main

import (
	"context"
	"fmt"
	"log"

	"baps"
)

func main() {
	cluster, err := baps.StartCluster(baps.ClusterConfig{
		Agents: 5, // holder + requester + three possible relays
		Proxy: baps.ProxyConfig{
			CacheCapacity: 250_000, // small proxy: evictions create P2P traffic
			MemFraction:   0.1,
			Forward:       baps.ForwardOnion,
			OnionRelays:   2, // two intermediate hops
			KeyBits:       1024,
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
	names := []string{"alice", "bob", "carol", "dave", "erin"}

	fmt.Println("Setting: five browsers behind one browsers-aware proxy; delivery mode is")
	fmt.Println("onion-forward with two relay hops.")

	doc := cluster.DocURL("/medical/record?size=100000")
	fmt.Println("\n1) Alice fetches a sensitive page (origin → proxy → Alice):")
	if _, src, err := cluster.Agents[0].Get(ctx, doc); err != nil || src != baps.SourceOrigin {
		log.Fatalf("alice: %v %v", src, err)
	}
	// Ship Alice's index delta now (agents batch them for up to 100 ms), so
	// the proxy knows she holds the page before Bob asks.
	if err := cluster.Agents[0].FlushIndex(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("   alice ← origin (proxy watermarked and cached it)")

	fmt.Println("\n2) Erin churns the proxy cache until the page is evicted there…")
	for i := 0; i < 4; i++ {
		if _, _, err := cluster.Agents[4].Get(ctx, cluster.DocURL(fmt.Sprintf("/noise/%d?size=80000", i))); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("\n3) Bob requests the page. The index knows Alice still holds it, so the")
	fmt.Println("   proxy builds a covert path: alice → relay → relay → bob. Watch who")
	fmt.Println("   relays (neither learns what, for whom, or from whom):")
	body, src, err := cluster.Agents[1].Get(ctx, doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   bob ← %s (%d bytes, watermark verified)\n", src, len(body))
	for i, a := range cluster.Agents {
		m := a.Snapshot()
		if m.OnionRelayed > 0 {
			fmt.Printf("   %s relayed %d sealed hop(s) — opaque to them\n", names[i], m.OnionRelayed)
		}
	}

	st := cluster.Proxy.Snapshot()
	fmt.Printf("\n4) The proxy brokered the hit without ever seeing the body:\n")
	fmt.Printf("   proxy stats: %d remote hits, 0 bytes of it through the proxy cache\n", st.RemoteHits)

	fmt.Println("\n5) Peer servers refuse everyone but the proxy (token) and refuse onions")
	fmt.Println("   not addressed to them (AES-GCM layer), so nobody can probe who holds what.")
	fmt.Println("\nThe paper's §6.2 properties hold end-to-end: mutual requester/holder")
	fmt.Println("anonymity with only 'limited centralized control' at the proxy.")
}
