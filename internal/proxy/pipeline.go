// Background work plane (DESIGN.md §14): the two producers that ride the
// workqueue, decoupling consistency upkeep from the request path.
//
//   - Origin revalidation: resident documents past RevalidateAfter are
//     conditionally re-fetched (If-None-Match + If-Modified-Since against
//     the origin's validators). A 304 just refreshes the freshness clock; a
//     200 with a new version replaces the local copy and fans the
//     invalidation out before a client ever sees the stale body.
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
	"strconv"
	"time"

	"baps/internal/obs"
	"baps/internal/proxy/docstore"
	"baps/internal/workqueue"
)

// Job kinds on the workqueue (rate-limit and metric labels).
const (
	kindRevalidate   = "revalidate"
	kindInvalLocal   = "invalidate_local"
	kindInvalBrowser = "invalidate_browser"
	kindInvalSibling = "invalidate_sibling"
)

// jobKinds is every kind this build submits.
var jobKinds = []string{kindRevalidate, kindInvalLocal, kindInvalBrowser, kindInvalSibling}

// revalScanBatch bounds the revalidation nominations per scan round so one
// huge cache cannot flood the queue (the next round picks up the rest — the
// scan is cheap).
const revalScanBatch = 256

// newWorkqueue builds the proxy's background queue from Config. The queue
// shares the server's metric registry, so baps_wq_* series appear on the
// same /metrics page as the proxy's own counters.
func (s *Server) newWorkqueue(reg *obs.Registry) *workqueue.Queue {
	return workqueue.New(workqueue.Config{
		JobTimeout: s.cfg.PeerTimeout,
		RateLimits: map[string]float64{kindRevalidate: s.cfg.RevalidateRPS},
		Metrics:    reg,
	})
}

// startPipeline launches the revalidation scanner when it is enabled. The
// workqueue itself is always live (invalidation fan-out needs no scanner).
func (s *Server) startPipeline() {
	if s.cfg.RevalidateAfter > 0 {
		s.pipelineWG.Add(1)
		go s.scanLoop(s.cfg.RevalidateEvery, s.revalidateScan)
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
	for _, url := range s.docs.Due(s.cfg.RevalidateAfter, revalScanBatch) {
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
		_, prior, st, _ := s.docs.Peek(url)
		if st == docstore.MetaOnly {
			return nil // evicted since nomination
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		req.Header.Set("If-None-Match", fmt.Sprintf("%q", "v"+strconv.FormatInt(prior.Version, 10)))
		if prior.LastMod != "" {
			req.Header.Set("If-Modified-Since", prior.LastMod)
		}
		body, hdr, err := s.getDoc(s.originClient, req)
		var se *statusError
		switch {
		case errors.As(err, &se) && se.code == http.StatusNotModified:
			s.docs.ConfirmFresh(url, prior.Version)
			s.m.revalFresh.Inc()
			return nil
		case err != nil:
			s.m.revalErrors.Inc()
			return err
		}
		s.m.revalChanged.Inc()
		s.storeDoc(url, body, originMeta(body, hdr, time.Now()))
		return nil
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
	if s.docs.Purge(url, version) {
		s.fedNote(1)
	}
}

// invalidateBrowserJob notifies one indexed holder that its copy is stale,
// then drops the index entry so no requester is routed there meanwhile.
func (s *Server) invalidateBrowserJob(client int, url string, version int64) func(context.Context) error {
	return func(ctx context.Context) error {
		peer, registered := s.peer(client)
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
