package browser

import (
	"encoding/json"
	"io"
	"net/http"

	"baps/internal/proxy"
)

// maxTombstones bounds the invalidated-URL tombstone set. At the cap, the
// oldest-by-iteration entry is dropped; an invalidation for a document that
// ever reappears through the proxy arrives with a higher version anyway.
const maxTombstones = 4096

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
