package browser

import (
	"bytes"
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

// store caches a received document locally and publishes the index update
// under the configured §2 protocol. Evictions forced by the insertion are
// published as invalidations (immediate), folded into the change counter
// (periodic), or coalesced into the publish queue (batched).
func (a *Agent) store(docURL string, body []byte, mark []byte, version int64) {
	if a.cfg.IndexMode == Batched {
		a.pubOrder.Lock()
		defer a.pubOrder.Unlock()
	}
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
		a.docs[docURL] = cachedDoc{body: body, watermark: mark, version: version}
	}
	for _, d := range evicted {
		delete(a.docs, d.Key)
	}
	resident := a.cache.Len()
	mode := a.cfg.IndexMode
	var deltas []seqDelta
	if mode == Batched {
		// Seq numbers are assigned here, under the same lock as the cache
		// mutation; the enqueue itself happens after unlock.
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
	}
	var syncEntries []proxy.IndexEntry
	if mode == Periodic {
		a.changes += len(evicted)
		if admitted {
			a.changes++
		}
		if float64(a.changes) >= a.cfg.Threshold*float64(max(resident, 1)) {
			syncEntries = a.directoryLocked(now)
			a.changes = 0
		}
	}
	a.mu.Unlock()

	// Network I/O happens outside the lock; in Batched mode there is none
	// here at all — the publish goroutine owns it.
	switch mode {
	case Immediate:
		if admitted {
			a.indexOp(true, proxy.IndexEntry{
				URL: docURL, Size: int64(len(body)), Version: version, Stamp: now,
			})
		}
		for _, d := range evicted {
			a.indexOp(false, proxy.IndexEntry{URL: d.Key})
		}
	case Periodic:
		if syncEntries != nil {
			a.indexSync(syncEntries, 0)
		}
	case Batched:
		for _, sd := range deltas {
			a.sink.enqueue(sd)
		}
	}
}

// directoryLocked snapshots the cache directory, stamping every entry with
// the caller-supplied time; the caller holds a.mu. A key returned by Keys()
// that Peek cannot find would mean the snapshot is inconsistent — counted,
// never silently dropped.
func (a *Agent) directoryLocked(now float64) []proxy.IndexEntry {
	keys := a.cache.Keys()
	entries := make([]proxy.IndexEntry, 0, len(keys))
	for _, k := range keys {
		d, ok := a.cache.Peek(k)
		if !ok {
			a.metrics.DirSnapshotMisses++
			continue
		}
		entries = append(entries, proxy.IndexEntry{
			URL: k, Size: d.Size, Version: d.Version, Stamp: now,
		})
	}
	return entries
}

// indexPublishFailure counts one failed index message and logs it.
func (a *Agent) indexPublishFailure(kind string, err error, status int) {
	a.addMetric(func(m *Metrics) { m.IndexPublishFailures++ })
	if a.logger == nil {
		return
	}
	if err != nil {
		a.logger.Warn("index publish failed", "kind", kind, "err", err)
	} else {
		a.logger.Warn("index publish rejected", "kind", kind, "status", status)
	}
}

// indexOp sends one immediate add/remove message. Only a 2xx acceptance
// counts as a sent op; errors and rejections count as publish failures.
func (a *Agent) indexOp(add bool, entry proxy.IndexEntry) {
	path := "/index/remove"
	if add {
		path = "/index/add"
	}
	body, _ := json.Marshal(proxy.IndexUpdate{ClientID: a.id, Entry: entry})
	req, err := http.NewRequest(http.MethodPost, a.cfg.ProxyURL+path, bytes.NewReader(body))
	if err != nil {
		return
	}
	a.authHeaders(req)
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.httpClient.Do(req)
	if err != nil {
		a.indexPublishFailure("op", err, 0)
		return
	}
	proxy.DrainClose(resp)
	if resp.StatusCode/100 != 2 {
		a.indexPublishFailure("op", nil, resp.StatusCode)
		return
	}
	a.addMetric(func(m *Metrics) { m.IndexOps++ })
}

// indexSync sends a full directory re-sync and reports acceptance. A
// non-zero gen re-seats the proxy's batch-generation counter (Batched
// mode); Periodic callers pass 0.
func (a *Agent) indexSync(entries []proxy.IndexEntry, gen uint64) bool {
	body, _ := json.Marshal(proxy.IndexSync{ClientID: a.id, Entries: entries, Gen: gen})
	req, err := http.NewRequest(http.MethodPost, a.cfg.ProxyURL+"/index/sync", bytes.NewReader(body))
	if err != nil {
		return false
	}
	a.authHeaders(req)
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.httpClient.Do(req)
	if err != nil {
		a.indexPublishFailure("sync", err, 0)
		return false
	}
	proxy.DrainClose(resp)
	if resp.StatusCode/100 != 2 {
		a.indexPublishFailure("sync", nil, resp.StatusCode)
		return false
	}
	a.addMetric(func(m *Metrics) { m.IndexSyncs++ })
	return true
}

// handlePeerResync lets the proxy ask this browser for a full directory
// re-sync — the recovery path after a proxy restart loses the index (§2's
// periodic update, pulled on demand). Token-authenticated like every
// proxy→browser call.
func (a *Agent) handlePeerResync(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(proxy.HeaderToken) != a.token {
		http.Error(w, "browser: forbidden", http.StatusForbidden)
		return
	}
	a.SyncIndexNow()
	w.WriteHeader(http.StatusOK)
}

// SyncIndexNow forces a full directory re-sync (used at startup/shutdown
// boundaries, by the proxy's /peer/resync recovery pull, and by tests). In
// Batched mode it routes through the publish goroutine so the sync
// supersedes the pending deltas and the generation counter stays coherent.
func (a *Agent) SyncIndexNow() {
	if a.sink != nil {
		a.sink.syncNow()
		return
	}
	now := nowStamp()
	a.mu.Lock()
	entries := a.directoryLocked(now)
	a.changes = 0
	a.mu.Unlock()
	a.indexSync(entries, 0)
}

// Evict drops a document from the local cache (a user clearing an entry),
// publishing the invalidation like any other eviction.
func (a *Agent) Evict(docURL string) bool {
	if a.cfg.IndexMode == Batched {
		a.pubOrder.Lock()
		defer a.pubOrder.Unlock()
	}
	a.mu.Lock()
	ok := a.cache.Remove(docURL)
	delete(a.docs, docURL)
	mode := a.cfg.IndexMode
	var seq uint64
	if ok {
		switch mode {
		case Periodic:
			a.changes++
		case Batched:
			a.deltaSeq++
			seq = a.deltaSeq
		}
	}
	a.mu.Unlock()
	if ok {
		switch mode {
		case Immediate:
			a.indexOp(false, proxy.IndexEntry{URL: docURL})
		case Batched:
			a.sink.enqueue(seqDelta{seq: seq, d: proxy.IndexDelta{URL: docURL, Remove: true}})
		}
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
	req, err := http.NewRequest(http.MethodPost, ps.RelayURL, bytes.NewReader(body))
	if err != nil {
		http.Error(w, "browser: relay request", http.StatusInternalServerError)
		return
	}
	req.Header.Set(proxy.HeaderVersion, strconv.FormatInt(d.version, 10))
	req.Header.Set(proxy.HeaderWatermark, base64.StdEncoding.EncodeToString(d.watermark))
	resp, err := a.httpClient.Do(req)
	if err != nil {
		http.Error(w, "browser: relay push failed", http.StatusBadGateway)
		return
	}
	proxy.DrainClose(resp)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		http.Error(w, "browser: relay push rejected: "+resp.Status, http.StatusBadGateway)
		return
	}
	w.WriteHeader(http.StatusOK)
}
