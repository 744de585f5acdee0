package browser

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"baps/internal/cache"
	"baps/internal/proxy"
)

// nowStamp is the index-entry timestamp: seconds since the epoch.
func nowStamp() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// store caches a received document locally and queues the index deltas —
// the admission and every eviction it forced — for the publisher; no network
// I/O happens here. The body goes through the agent's body store, so a
// byte-identical copy a sibling already holds is kept once.
func (a *Agent) store(docURL string, body []byte, mark []byte, version int64) {
	a.pubOrder.Lock()
	defer a.pubOrder.Unlock()
	now := nowStamp()
	a.mu.Lock()
	// Nothing enters a closing agent's cache: a fetch completing mid-Close
	// would otherwise repopulate a cache the host has already released.
	if a.closing {
		a.mu.Unlock()
		return
	}
	// A tombstoned version must never re-enter the cache: an in-flight
	// fetch that raced a /cache/invalidate would otherwise resurrect the
	// stale body for peer serving. A version at or past the floor clears
	// the tombstone — the document is current again.
	if floor, dead := a.invalidated[docURL]; dead {
		if version < floor {
			a.mu.Unlock()
			return
		}
		delete(a.invalidated, docURL)
	}
	evicted, admitted := a.cache.Put(cache.Doc{Key: docURL, Size: int64(len(body)), Version: version})
	if admitted {
		a.keepLocked(docURL, body, mark, version)
	}
	for _, d := range evicted {
		a.dropLocked(d.Key)
	}
	// Seq numbers are assigned here, under the same lock as the cache
	// mutation; the enqueue itself happens after unlock.
	var deltas []seqDelta
	if admitted {
		a.deltaSeq++
		deltas = append(deltas, seqDelta{seq: a.deltaSeq, d: proxy.IndexDelta{
			URL: docURL, Size: int64(len(body)), Version: version, Stamp: now,
		}})
	}
	for _, d := range evicted {
		a.deltaSeq++
		deltas = append(deltas, seqDelta{seq: a.deltaSeq, d: proxy.IndexDelta{URL: d.Key, Remove: true}})
	}
	a.mu.Unlock()
	for _, sd := range deltas {
		a.index.enqueue(a, sd)
	}
}

// directoryLocked snapshots the cache directory as upserts, stamping every
// entry with the caller-supplied time; the caller holds a.mu. A key returned
// by Keys() that Peek cannot find would mean the snapshot is inconsistent —
// counted, never silently dropped.
func (a *Agent) directoryLocked(now float64) []proxy.IndexDelta {
	keys := a.cache.Keys()
	dir := make([]proxy.IndexDelta, 0, len(keys))
	for _, k := range keys {
		d, ok := a.cache.Peek(k)
		if !ok {
			a.metrics.DirSnapshotMisses++
			continue
		}
		dir = append(dir, proxy.IndexDelta{URL: k, Size: d.Size, Version: d.Version, Stamp: now})
	}
	return dir
}

// handlePeerResync lets the proxy ask this browser for a full directory
// re-sync — the recovery path after a proxy restart or a detected drift
// (§2's periodic update, pulled on demand). Token-authenticated like every
// proxy→browser call.
func (a *Agent) handlePeerResync(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(proxy.HeaderToken) != a.token {
		http.Error(w, "browser: forbidden", http.StatusForbidden)
		return
	}
	if err := a.syncIndexNow(); err != nil {
		http.Error(w, "browser: resync not accepted: "+err.Error(), http.StatusBadGateway)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// syncIndexNow replaces this agent's pending deltas with a Full directory
// sync and waits for it. It routes through the publisher so the sync
// supersedes the pending deltas and the generation counter stays coherent.
func (a *Agent) syncIndexNow() error { return a.index.call(a, reqSync) }

// FlushIndex ships this agent's pending index deltas now and waits for the
// proxy's ack: read-your-writes for a caller that needs the proxy's index to
// reflect every cache change made so far (a replay compared against the
// simulator, a test expecting a peer hit). It is a no-op once the agent has
// closed.
func (a *Agent) FlushIndex() error { return a.index.call(a, reqFlush) }

// Evict drops a document from the local cache (a user clearing an entry),
// publishing the invalidation like any other eviction.
func (a *Agent) Evict(docURL string) bool {
	a.pubOrder.Lock()
	defer a.pubOrder.Unlock()
	a.mu.Lock()
	ok := a.cache.Remove(docURL)
	a.dropLocked(docURL)
	var seq uint64
	if ok {
		a.deltaSeq++
		seq = a.deltaSeq
	}
	a.mu.Unlock()
	if ok {
		a.index.enqueue(a, seqDelta{seq: seq, d: proxy.IndexDelta{URL: docURL, Remove: true}})
	}
	return ok
}

// handlePeerDoc serves GET /peer/doc?url= to the proxy (fetch-forward).
// Only the proxy knows the agent's token, so peers cannot call this
// directly — the anonymity boundary of §6.2.
func (a *Agent) handlePeerDoc(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(proxy.HeaderToken) != a.token {
		http.Error(w, "browser: forbidden", http.StatusForbidden)
		return
	}
	docURL := r.URL.Query().Get("url")
	a.mu.Lock()
	d, ok := a.docs[docURL]
	// Never hand out a copy the proxy has withdrawn, or anything once
	// shutdown has begun: a stale-but-validly-watermarked body leaving
	// this agent would verify at the requester and defeat invalidation.
	refused := a.closing || (ok && d.version < a.invalidated[docURL])
	if ok && !refused {
		a.cache.GetTier(docURL) // a peer read references the cache entry
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
		body = tamper(docURL, body)
	}
	w.Header().Set(proxy.HeaderVersion, strconv.FormatInt(d.version, 10))
	w.Header().Set(proxy.HeaderWatermark, base64.StdEncoding.EncodeToString(d.watermark))
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// handlePeerSend executes a direct-forward push: the proxy supplies only an
// anonymous relay URL; the agent posts the document there.
func (a *Agent) handlePeerSend(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(proxy.HeaderToken) != a.token {
		http.Error(w, "browser: forbidden", http.StatusForbidden)
		return
	}
	var ps proxy.PeerSend
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&ps); err != nil {
		http.Error(w, "browser: bad send body", http.StatusBadRequest)
		return
	}
	if _, err := url.Parse(ps.RelayURL); err != nil || ps.URL == "" {
		http.Error(w, "browser: bad send fields", http.StatusBadRequest)
		return
	}
	a.mu.Lock()
	d, ok := a.docs[ps.URL]
	refused := a.closing || (ok && d.version < a.invalidated[ps.URL])
	if ok && !refused {
		a.cache.GetTier(ps.URL)
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
		body = tamper(ps.URL, body)
	}
	// The push must not take this request's context: the proxy's
	// PeerTimeout client gives up on /peer/send while a long push is still
	// streaming to the requester, and that would cut the push off.
	if err := proxy.Post(context.Background(), a.httpClient, ps.RelayURL, body,
		proxy.HeaderVersion, strconv.FormatInt(d.version, 10),
		proxy.HeaderWatermark, base64.StdEncoding.EncodeToString(d.watermark)); err != nil {
		http.Error(w, "browser: relay push: "+err.Error(), http.StatusBadGateway)
		return
	}
	w.WriteHeader(http.StatusOK)
}
