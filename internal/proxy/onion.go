package proxy

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/base64"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math/big"

	"baps/internal/anonymity"
)

// onionFromPeer launches a document from holder onto an onion-routed covert
// path terminating at the requester (OnionForward mode, §6.2's
// decentralized variant):
//
//  1. The proxy picks OnionRelays intermediate relay browsers and builds a
//     route onion over [relays..., requester] from the relay keys it issued
//     at registration. The terminal layer carries the document URL and a
//     fresh ephemeral AES key, readable only by the requester.
//  2. The holder is told the first hop's address, the route onion, and the
//     ephemeral key; it seals {url, version, watermark, body} under the
//     ephemeral key and posts it to the first hop.
//  3. Each relay peels one route layer (learning only the next address) and
//     forwards the sealed payload untouched; the requester opens it and
//     verifies the watermark end-to-end.
//
// The proxy never touches the body; the holder never learns the requester;
// the requester never learns the holder.
func (s *Server) onionFromPeer(ctx context.Context, holder peerInfo, url string, requester int) (fetchResult, error) {
	s.mu.Lock()
	req, ok := s.peers[requester]
	if !ok {
		s.mu.Unlock()
		return fetchResult{}, fmt.Errorf("onion: requester %d not registered", requester)
	}
	// Candidate relays: every other registered client.
	var candidates []peerInfo
	for id, p := range s.peers {
		if id != requester && id != holder.id {
			candidates = append(candidates, p)
		}
	}
	s.mu.Unlock()

	path := make([]anonymity.AddrHop, 0, s.cfg.OnionRelays+1)
	for i := 0; i < s.cfg.OnionRelays && len(candidates) > 0; i++ {
		j, err := randInt(len(candidates))
		if err != nil {
			return fetchResult{}, err
		}
		relay := candidates[j]
		candidates = append(candidates[:j], candidates[j+1:]...)
		path = append(path, anonymity.AddrHop{Addr: relay.baseURL, Key: relay.relayKey})
	}
	path = append(path, anonymity.AddrHop{Addr: req.baseURL, Key: req.relayKey})

	ephemeral, err := anonymity.NewKey()
	if err != nil {
		return fetchResult{}, err
	}
	var final bytes.Buffer
	if err := gob.NewEncoder(&final).Encode(OnionFinal{URL: url, Key: ephemeral}); err != nil {
		return fetchResult{}, fmt.Errorf("onion: encode final: %w", err)
	}
	route, err := anonymity.BuildRoute(path, final.Bytes())
	if err != nil {
		return fetchResult{}, err
	}

	send, err := json.Marshal(PeerOnionSend{
		URL:             url,
		FirstAddr:       path[0].Addr,
		RouteB64:        base64.StdEncoding.EncodeToString(route),
		EphemeralKeyB64: base64.StdEncoding.EncodeToString(ephemeral),
	})
	if err != nil {
		return fetchResult{}, err
	}
	if err := Post(ctx, s.peerClient, holder.baseURL+"/peer/onion-send", send,
		HeaderToken, holder.token, "Content-Type", "application/json"); err != nil {
		return fetchResult{}, err
	}
	return fetchResult{source: SourceRemote, viaOnion: true, outcome: outPeerOnion}, nil
}

// randInt returns a uniform int in [0, n) from crypto/rand (relay selection
// must not be predictable to peers).
func randInt(n int) (int, error) {
	v, err := rand.Int(rand.Reader, big.NewInt(int64(n)))
	if err != nil {
		return 0, fmt.Errorf("onion: rand: %w", err)
	}
	return int(v.Int64()), nil
}
