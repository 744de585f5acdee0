package browser

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"baps/internal/anonymity"
	"baps/internal/proxy"
)

// onionDeliveryMsg is what surfaces at the requester after opening the
// sealed payload.
type onionDeliveryMsg struct {
	body      []byte
	watermark []byte
	version   int64
}

// expectOnion registers a waiter for an onion delivery of docURL. Callers
// must invoke the returned cancel func.
func (a *Agent) expectOnion(docURL string) (<-chan onionDeliveryMsg, func()) {
	ch := make(chan onionDeliveryMsg, 1)
	a.mu.Lock()
	if a.pendingOnion == nil {
		a.pendingOnion = make(map[string]chan onionDeliveryMsg)
	}
	a.pendingOnion[docURL] = ch
	a.mu.Unlock()
	return ch, func() {
		a.mu.Lock()
		delete(a.pendingOnion, docURL)
		a.mu.Unlock()
	}
}

// handlePeerOnionSend executes the proxy's instruction to launch a document
// onto a covert path (the agent is the holder). Only the proxy knows the
// agent's token.
func (a *Agent) handlePeerOnionSend(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(proxy.HeaderToken) != a.token {
		http.Error(w, "browser: forbidden", http.StatusForbidden)
		return
	}
	var send proxy.PeerOnionSend
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&send); err != nil || send.URL == "" || send.FirstAddr == "" {
		http.Error(w, "browser: bad onion-send", http.StatusBadRequest)
		return
	}
	route, err := base64.StdEncoding.DecodeString(send.RouteB64)
	if err != nil {
		http.Error(w, "browser: bad route", http.StatusBadRequest)
		return
	}
	ephemeral, err := base64.StdEncoding.DecodeString(send.EphemeralKeyB64)
	if err != nil {
		http.Error(w, "browser: bad key", http.StatusBadRequest)
		return
	}
	a.mu.Lock()
	d, ok := a.docs[send.URL]
	refused := a.closing || (ok && d.version < a.invalidated[send.URL])
	if ok && !refused {
		a.cache.GetTier(send.URL)
		a.metrics.PeerServes++
	}
	tamper := a.Tamper
	a.mu.Unlock()
	if refused {
		http.Error(w, "browser: gone", http.StatusGone)
		return
	}
	if !ok {
		http.Error(w, "browser: not cached", http.StatusNotFound)
		return
	}
	body := d.body
	if tamper != nil {
		body = tamper(send.URL, body)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(proxy.OnionDelivery{
		URL: send.URL, Version: d.version, Watermark: d.watermark, Body: body,
	}); err != nil {
		http.Error(w, "browser: encode", http.StatusInternalServerError)
		return
	}
	sealed, err := anonymity.Seal(ephemeral, payload.Bytes())
	if err != nil {
		http.Error(w, "browser: seal", http.StatusInternalServerError)
		return
	}
	if err := a.forwardOnion(send.FirstAddr, route, sealed); err != nil {
		http.Error(w, fmt.Sprintf("browser: launch: %v", err), http.StatusBadGateway)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// forwardOnion posts a (route, sealed-payload) pair to the next hop.
func (a *Agent) forwardOnion(addr string, route, sealed []byte) error {
	return proxy.Post(context.Background(), a.httpClient, addr+"/peer/onion", sealed,
		proxy.HeaderOnionRoute, base64.StdEncoding.EncodeToString(route))
}

// handlePeerOnion receives an onion hop: the agent peels one route layer
// with its relay key. A middle layer names the next hop (the sealed payload
// is forwarded untouched); the terminal layer yields the document URL and
// the ephemeral key that opens the payload, which is handed to the waiting
// Get. Deliveries are authenticated by the route layer's AES-GCM tag — a
// caller without a proxy-built onion for this agent cannot produce one.
func (a *Agent) handlePeerOnion(w http.ResponseWriter, r *http.Request) {
	routeB64 := r.Header.Get(proxy.HeaderOnionRoute)
	route, err := base64.StdEncoding.DecodeString(routeB64)
	if err != nil || len(route) == 0 {
		http.Error(w, "browser: bad onion route", http.StatusBadRequest)
		return
	}
	sealed, err := io.ReadAll(io.LimitReader(r.Body, 192<<20))
	if err != nil {
		http.Error(w, "browser: onion body", http.StatusBadRequest)
		return
	}
	next, rest, final, err := anonymity.PeelRoute(a.relayKey, route)
	if err != nil {
		http.Error(w, "browser: not for me", http.StatusForbidden)
		return
	}
	if !final {
		a.addMetric(func(m *Metrics) { m.OnionRelayed++ })
		if err := a.forwardOnion(next, rest, sealed); err != nil {
			http.Error(w, "browser: forward failed", http.StatusBadGateway)
			return
		}
		w.WriteHeader(http.StatusOK)
		return
	}
	var fin proxy.OnionFinal
	if err := gob.NewDecoder(bytes.NewReader(rest)).Decode(&fin); err != nil {
		http.Error(w, "browser: bad terminal layer", http.StatusBadRequest)
		return
	}
	plain, err := anonymity.Open(fin.Key, sealed)
	if err != nil {
		http.Error(w, "browser: payload authentication failed", http.StatusForbidden)
		return
	}
	var d proxy.OnionDelivery
	if err := gob.NewDecoder(bytes.NewReader(plain)).Decode(&d); err != nil {
		http.Error(w, "browser: bad delivery", http.StatusBadRequest)
		return
	}
	if d.URL != fin.URL {
		http.Error(w, "browser: delivery URL mismatch", http.StatusBadRequest)
		return
	}
	a.mu.Lock()
	ch := a.pendingOnion[d.URL]
	a.mu.Unlock()
	if ch == nil {
		// Unsolicited (or late) delivery; drop it.
		w.WriteHeader(http.StatusGone)
		return
	}
	select {
	case ch <- onionDeliveryMsg{body: d.Body, watermark: d.Watermark, version: d.Version}:
	default:
	}
	w.WriteHeader(http.StatusOK)
}

// awaitOnion blocks for an announced onion delivery.
func (a *Agent) awaitOnion(ch <-chan onionDeliveryMsg) (onionDeliveryMsg, error) {
	select {
	case d := <-ch:
		return d, nil
	case <-time.After(a.cfg.Timeout):
		return onionDeliveryMsg{}, fmt.Errorf("browser: onion delivery timed out")
	}
}
