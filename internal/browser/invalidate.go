package browser

import (
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"strconv"

	"baps/internal/proxy"
)

// maxTombstones bounds the invalidated-URL tombstone set. At the cap, the
// oldest-by-iteration entry is dropped; an invalidation for a document that
// ever reappears through the proxy arrives with a higher version anyway.
const maxTombstones = 4096

// handleCachePush ingests a proxy-initiated prefetch: the proxy pushes a
// hot document (body + version + watermark) into this cache so future peer
// lookups can resolve here. Token-authenticated like every proxy→browser
// call; the watermark is verified before the body is stored, so a push can
// never plant unsigned content.
func (a *Agent) handleCachePush(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(proxy.HeaderToken) != a.token {
		http.Error(w, "browser: forbidden", http.StatusForbidden)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "browser: POST only", http.StatusMethodNotAllowed)
		return
	}
	docURL := r.URL.Query().Get("url")
	if docURL == "" {
		http.Error(w, "browser: missing url", http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, proxy.MaxDocBytes+1))
	if err != nil {
		http.Error(w, "browser: short push body", http.StatusBadRequest)
		return
	}
	if int64(len(body)) > proxy.MaxDocBytes {
		http.Error(w, "browser: push too large", http.StatusRequestEntityTooLarge)
		return
	}
	version, _ := strconv.ParseInt(r.Header.Get(proxy.HeaderVersion), 10, 64)
	mark, _ := base64.StdEncoding.DecodeString(r.Header.Get(proxy.HeaderWatermark))
	if a.cfg.Verify {
		if err := a.verify(body, mark); err != nil {
			a.addMetric(func(m *Metrics) { m.TamperSeen++ })
			http.Error(w, "browser: bad watermark", http.StatusBadRequest)
			return
		}
	}
	a.mu.Lock()
	closing := a.closing
	floor := a.invalidated[docURL]
	a.mu.Unlock()
	switch {
	case closing:
		a.addMetric(func(m *Metrics) { m.PushesDeclined++ })
		http.Error(w, "browser: closing", http.StatusConflict)
		return
	case version < floor:
		a.addMetric(func(m *Metrics) { m.PushesDeclined++ })
		http.Error(w, "browser: version invalidated", http.StatusGone)
		return
	}
	a.store(docURL, body, mark, version)
	a.addMetric(func(m *Metrics) { m.PushesAccepted++ })
	w.WriteHeader(http.StatusNoContent)
}

// handleCacheInvalidate withdraws a document the proxy observed modified:
// any local copy older than the announced version is dropped and the URL
// is tombstoned at that floor, so an in-flight stale delivery can neither
// be re-stored nor served to a peer afterwards. The proxy drops this
// agent's index entry itself, so no index message is published back.
func (a *Agent) handleCacheInvalidate(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(proxy.HeaderToken) != a.token {
		http.Error(w, "browser: forbidden", http.StatusForbidden)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "browser: POST only", http.StatusMethodNotAllowed)
		return
	}
	var req proxy.InvalidateRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil || req.URL == "" {
		http.Error(w, "browser: bad invalidate body", http.StatusBadRequest)
		return
	}
	a.mu.Lock()
	// A closing agent's maps may already be released (hosted agents hand
	// memory back to the arena); there is nothing left worth tombstoning.
	if a.closing {
		a.mu.Unlock()
		http.Error(w, "browser: closing", http.StatusConflict)
		return
	}
	if req.Version > a.invalidated[req.URL] {
		if len(a.invalidated) >= maxTombstones {
			for k := range a.invalidated {
				delete(a.invalidated, k)
				break
			}
		}
		a.invalidated[req.URL] = req.Version
	}
	if d, held := a.docs[req.URL]; held && d.version < req.Version {
		a.cache.Remove(req.URL)
		a.dropLocked(req.URL)
	}
	a.metrics.Invalidations++
	a.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}
