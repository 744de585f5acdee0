// Background work plane (DESIGN.md §14): the three producers that ride the
// workqueue, decoupling consistency upkeep and proactive placement from the
// request path.
//
//   - Origin revalidation: resident documents past RevalidateAfter are
//     conditionally re-fetched (If-None-Match + If-Modified-Since against
//     the origin's validators). A 304 just refreshes the freshness clock; a
//     200 with a new version replaces the local copy and fans the
//     invalidation out before a client ever sees the stale body.
//   - Popularity-driven prefetch: per-doc access accounting nominates hot
//     resident documents; the least-loaded registered browsers (fewest
//     indexed documents) receive them via authenticated POST /cache/push,
//     turning the browser index into a placement engine.
//   - Invalidation fan-out: any observed modification (revalidation,
//     refetch, or a sibling's /peer/invalidate) enqueues jobs that purge
//     the local tiers, notify indexed browser holders (POST
//     /cache/invalidate), and forward one hop to federation siblings whose
//     digests may cover the URL (POST /peer/invalidate).
package proxy

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"sort"
	"strconv"
	"time"

	"baps/internal/index"
	"baps/internal/obs"
	"baps/internal/workqueue"
)

// Job kinds on the workqueue (rate-limit and metric labels).
const (
	kindRevalidate   = "revalidate"
	kindPrefetch     = "prefetch"
	kindInvalLocal   = "invalidate_local"
	kindInvalBrowser = "invalidate_browser"
	kindInvalSibling = "invalidate_sibling"
)

const (
	// revalScanBatch bounds the revalidation nominations per scan round so
	// one huge cache cannot flood the queue (the next round picks up the
	// rest — the scan is cheap).
	revalScanBatch = 256
	// maxPopEntries bounds the popularity table; beyond it only already
	// tracked documents accrue hits until decay frees room.
	maxPopEntries = 65536
	// prefetchFanout bounds the pushes per prefetch scan round and
	// prefetchRPS rate-limits the push jobs (per second).
	prefetchFanout = 4
	prefetchRPS    = 64
	// pushedTTL is how long a (url, client) push is remembered, so the
	// prefetcher does not re-push a hot document the target just evicted.
	pushedTTL = 30 * time.Second
)

// newWorkqueue builds the proxy's background queue from Config. The queue
// shares the server's metric registry, so baps_wq_* series appear on the
// same /metrics page as the proxy's own counters.
func (s *Server) newWorkqueue(reg *obs.Registry) *workqueue.Queue {
	return workqueue.New(workqueue.Config{
		JobTimeout: s.cfg.PeerTimeout,
		RateLimits: map[string]float64{kindRevalidate: s.cfg.RevalidateRPS, kindPrefetch: prefetchRPS},
		Metrics:    reg,
	})
}

// notePop records one client-facing access for prefetch popularity
// accounting (no-op with the prefetch producer disabled).
func (s *Server) notePop(url string) {
	if s.cfg.PrefetchInterval <= 0 {
		return
	}
	s.mu.Lock()
	if len(s.pop) < maxPopEntries {
		s.pop[url]++
	} else if s.pop[url] > 0 {
		s.pop[url]++
	}
	s.mu.Unlock()
}

// startPipeline launches the enabled scanning producers. The workqueue
// itself is always live (invalidation fan-out needs no scanner).
func (s *Server) startPipeline() {
	if s.cfg.RevalidateAfter > 0 {
		s.pipelineWG.Add(1)
		go s.scanLoop(s.cfg.RevalidateEvery, s.revalidateScan)
	}
	if s.cfg.PrefetchInterval > 0 {
		s.pipelineWG.Add(1)
		go s.scanLoop(s.cfg.PrefetchInterval, s.prefetchScan)
	}
}

// scanLoop ticks scan until the pipeline stops.
func (s *Server) scanLoop(every time.Duration, scan func()) {
	defer s.pipelineWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stopPipeline:
			return
		case <-t.C:
			scan()
		}
	}
}

// revalidateScan nominates resident documents whose last acquisition or
// freshness check is older than RevalidateAfter.
func (s *Server) revalidateScan() {
	now := time.Now()
	s.mu.Lock()
	due := make([]string, 0, 64)
	for url, r := range s.docs {
		if r.state == docMetaOnly {
			continue
		}
		last := r.meta.storedAt
		if r.meta.checkedAt.After(last) {
			last = r.meta.checkedAt
		}
		if now.Sub(last) >= s.cfg.RevalidateAfter {
			due = append(due, url)
			if len(due) == revalScanBatch {
				break
			}
		}
	}
	s.mu.Unlock()
	for _, url := range due {
		// ErrDuplicate/ErrFull are fine: the document stays due and the
		// next round renominates it.
		s.wq.Submit(workqueue.Job{
			Kind: kindRevalidate, Key: url, Priority: workqueue.Normal,
			Run: s.revalidateJob(url),
		})
	}
}

// revalidateJob performs one background conditional GET. 304 refreshes the
// freshness clock; 200 with a changed version stores the new body (which
// triggers the invalidation fan-out via storeDoc's modification detection).
func (s *Server) revalidateJob(url string) func(context.Context) error {
	return func(ctx context.Context) error {
		s.mu.Lock()
		r := s.residentLocked(url)
		if r == nil {
			s.mu.Unlock()
			return nil // evicted since nomination
		}
		prior := r.meta
		s.mu.Unlock()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		req.Header.Set("If-None-Match", fmt.Sprintf("%q", "v"+strconv.FormatInt(prior.version, 10)))
		if prior.lastMod != "" {
			req.Header.Set("If-Modified-Since", prior.lastMod)
		}
		body, hdr, err := s.getDoc(s.originClient, req)
		var se *statusError
		switch {
		case errors.As(err, &se) && se.code == http.StatusNotModified:
			s.mu.Lock()
			s.confirmFreshLocked(url, prior.version)
			s.mu.Unlock()
			s.m.revalFresh.Inc()
			return nil
		case err != nil:
			s.m.revalErrors.Inc()
			return err
		}
		meta := originMeta(body, hdr, time.Now())
		meta.checkedAt = meta.storedAt
		s.m.revalChanged.Inc()
		s.storeDoc(url, body, meta)
		return nil
	}
}

// prefetchScan decays the popularity table, picks the hottest memory-
// resident documents, and pushes up to prefetchFanout of them into the
// least-loaded registered browsers that do not already hold them.
func (s *Server) prefetchScan() {
	now := time.Now()
	type hotDoc struct {
		url string
		n   int64
	}
	s.mu.Lock()
	hots := make([]hotDoc, 0, 16)
	for url, n := range s.pop {
		if n >= int64(s.cfg.PrefetchMinHits) {
			if r := s.docs[url]; r != nil && r.state == docMemory {
				hots = append(hots, hotDoc{url, n})
			}
		}
		// Exponential decay keeps the table bounded and biased to recent
		// popularity.
		if n >>= 1; n == 0 {
			delete(s.pop, url)
		} else {
			s.pop[url] = n
		}
	}
	for k, t := range s.pushed {
		if now.Sub(t) > pushedTTL {
			delete(s.pushed, k)
		}
	}
	peers := make([]peerInfo, 0, len(s.peers))
	for _, p := range s.peers {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	if len(hots) == 0 || len(peers) == 0 {
		return
	}
	sort.Slice(hots, func(i, j int) bool { return hots[i].n > hots[j].n })
	// Load = how many documents the index believes each browser holds;
	// prefetch fills the emptiest caches first (ties broken by id for
	// determinism).
	loads := make(map[int]int, len(peers))
	for _, p := range peers {
		loads[p.id] = len(s.idx.ClientDocs(p.id))
	}
	sort.Slice(peers, func(i, j int) bool {
		if loads[peers[i].id] != loads[peers[j].id] {
			return loads[peers[i].id] < loads[peers[j].id]
		}
		return peers[i].id < peers[j].id
	})
	submitted := 0
	for _, h := range hots {
		if submitted >= prefetchFanout {
			break
		}
		holders := make(map[int]bool)
		if doc, known := s.syms.Lookup(h.url); known {
			for _, e := range s.idx.Lookup(doc) {
				holders[e.Client] = true
			}
		}
		for _, p := range peers {
			if holders[p.id] {
				continue
			}
			key := h.url + "\x00" + strconv.Itoa(p.id)
			s.mu.Lock()
			_, recent := s.pushed[key]
			if !recent {
				s.pushed[key] = now
			}
			s.mu.Unlock()
			if recent {
				break // this doc was just pushed; move to the next one
			}
			s.wq.Submit(workqueue.Job{
				Kind: kindPrefetch, Key: key, Priority: workqueue.Low,
				Run: s.prefetchJob(p.id, h.url),
			})
			submitted++
			break
		}
	}
}

// prefetchJob pushes one hot document into one browser cache. The target
// re-serves the document to peers, so the push carries the watermark; if it
// cannot be derived the push is skipped (the agent would reject an unsigned
// body) and the error goes to the workqueue's retry/dead-letter accounting.
func (s *Server) prefetchJob(client int, url string) func(context.Context) error {
	return func(ctx context.Context) error {
		s.mu.Lock()
		peer, registered := s.peers[client]
		r := s.docs[url]
		if !registered || r == nil || r.state != docMemory {
			s.mu.Unlock()
			return nil // nomination went stale; nothing to push
		}
		body, meta := r.body, r.meta
		s.mu.Unlock()
		mark, err := s.watermarkFor(s.withDigest(url, body, meta).digest)
		if err != nil {
			return err
		}
		err = Post(ctx, s.peerClient, peer.baseURL+"/cache/push?url="+neturl.QueryEscape(url), body,
			HeaderToken, peer.token,
			HeaderVersion, strconv.FormatInt(meta.version, 10),
			HeaderWatermark, mark)
		var se *statusError
		switch {
		case err == nil:
			s.m.prefetchPushes.Inc()
			// The agent publishes the add through its own index protocol
			// too (idempotent upsert); recording it here makes the
			// placement resolvable immediately.
			s.idx.Add(index.Entry{
				Client: client, Doc: s.syms.Intern(url),
				Size: int64(len(body)), Version: meta.version,
				Stamp: float64(time.Now().UnixNano()) / 1e9,
			})
			s.fedNote(1)
			return nil
		case errors.As(err, &se) && (se.code == http.StatusConflict || se.code == http.StatusGone):
			// The agent declined (doc invalidated there, or closing).
			s.m.prefetchDeclined.Inc()
			return nil
		default:
			return err
		}
	}
}

// onModified fans out invalidation work for url at version. fromSibling
// marks a /peer/invalidate ingest: the local tiers are purged too (this
// proxy did not just store the fresh body) and the fan-out stops here —
// one hop, never a cascade.
func (s *Server) onModified(url string, version int64, fromSibling bool) {
	if s.wq == nil {
		return
	}
	vkey := url + "\x00" + strconv.FormatInt(version, 10)
	if fromSibling {
		s.wq.Submit(workqueue.Job{
			Kind: kindInvalLocal, Key: vkey, Priority: workqueue.High,
			Run: func(context.Context) error {
				s.purgeStale(url, version)
				s.m.invalLocal.Inc()
				return nil
			},
		})
	}
	if doc, known := s.syms.Lookup(url); known {
		for _, e := range s.idx.Lookup(doc) {
			if e.Version >= version {
				continue // that copy is already current
			}
			client := e.Client
			s.wq.Submit(workqueue.Job{
				Kind: kindInvalBrowser, Key: vkey + "\x00" + strconv.Itoa(client),
				Priority: workqueue.High,
				Run:      s.invalidateBrowserJob(client, url, version),
			})
		}
	}
	if fromSibling {
		return
	}
	if fed := s.fed.Load(); fed != nil {
		for _, sib := range fed.Candidates(url) {
			s.wq.Submit(workqueue.Job{
				Kind: kindInvalSibling, Key: vkey + "\x00" + sib,
				Priority: workqueue.Normal,
				Run:      s.invalidateSiblingJob(sib, url, version),
			})
		}
	}
}

// purgeStale removes url's copies older than version from every local tier
// (memory, spill stage, disk). A copy already at or past version survives:
// the purge job may run after a refetch has landed the fresh body.
func (s *Server) purgeStale(url string, version int64) {
	s.mu.Lock()
	if r := s.docs[url]; r != nil && r.meta.version >= version {
		s.mu.Unlock()
		return
	}
	delete(s.docs, url)
	delete(s.pop, url)
	s.cache.Remove(url)
	s.queueDiskDelete(url)
	s.fedNote(1)
	s.mu.Unlock()
}

// invalidateBrowserJob notifies one indexed holder that its copy is stale,
// then drops the index entry so no requester is routed there meanwhile.
func (s *Server) invalidateBrowserJob(client int, url string, version int64) func(context.Context) error {
	return func(ctx context.Context) error {
		s.mu.Lock()
		peer, registered := s.peers[client]
		s.mu.Unlock()
		if !registered {
			return nil // departed; its entries die with it
		}
		body, err := json.Marshal(InvalidateRequest{URL: url, Version: version})
		if err != nil {
			return err
		}
		if err := Post(ctx, s.peerClient, peer.baseURL+"/cache/invalidate", body,
			HeaderToken, peer.token, "Content-Type", "application/json"); err != nil {
			return err
		}
		if doc, known := s.syms.Lookup(url); known {
			s.idx.Remove(client, doc)
			s.fedNote(1)
		}
		s.m.invalBrowser.Inc()
		return nil
	}
}

// invalidateSiblingJob forwards the invalidation one hop to a federation
// sibling whose digest may cover the URL. A dead sibling costs MaxAttempts
// timed-out tries and a dead letter, never a wedged queue.
func (s *Server) invalidateSiblingJob(sib, url string, version int64) func(context.Context) error {
	return func(ctx context.Context) error {
		body, err := json.Marshal(InvalidateRequest{URL: url, Version: version, From: s.baseURL})
		if err != nil {
			return err
		}
		if err := Post(ctx, s.peerClient, sib+"/peer/invalidate", body, "Content-Type", "application/json"); err != nil {
			return err
		}
		s.m.invalSibling.Inc()
		return nil
	}
}

// handlePeerInvalidate ingests a sibling proxy's invalidation: purge the
// local tiers, notify this proxy's own browsers, and stop — the fan-out is
// one hop (the originator reaches every sibling directly), so clusters can
// never invalidate in a loop.
func (s *Server) handlePeerInvalidate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "proxy: POST only", http.StatusMethodNotAllowed)
		return
	}
	fed := s.fed.Load()
	if fed == nil {
		http.Error(w, "proxy: not federated", http.StatusServiceUnavailable)
		return
	}
	var req InvalidateRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil || req.URL == "" {
		http.Error(w, "proxy: bad invalidate body", http.StatusBadRequest)
		return
	}
	known := false
	for _, n := range fed.Nodes() {
		if n == req.From && n != fed.Self() {
			known = true
			break
		}
	}
	if !known {
		http.Error(w, "proxy: unknown sibling", http.StatusForbidden)
		return
	}
	s.m.invalRecv.Inc()
	s.onModified(req.URL, req.Version, true)
	w.WriteHeader(http.StatusNoContent)
}
