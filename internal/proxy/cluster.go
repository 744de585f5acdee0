package proxy

// Multi-proxy federation: the proxy's cluster tier. A federated proxy owns a
// rendezvous-hash slice of the client population and exchanges periodic Bloom
// digests of its aggregate directory (proxy cache + browser index) with its
// siblings via internal/federation. A miss that the local browsers cannot
// cover then checks the sibling digests before the origin:
//
//	local tiers → own browsers → sibling digest check
//	            → GET  sibling/peer/locate   (confirm; digests lie at FPR)
//	            → GET  sibling/fetch + X-BAPS-Cluster-Hop: 1 (one-hop relay)
//	            → origin
//
// The hop header makes the sibling resolve only its local tiers and its own
// browsers — never its cluster tier or the origin — so relays cannot loop and
// a cluster-wide miss still costs exactly one origin fetch (at the
// requester). A hop response carries no watermark and the receiver records no
// digest on acquisition: each federated proxy keys its own client population,
// so withDigest derives the digest, and then the watermark under the
// receiver's own key, only when a registered client of its own needs it.
//
// This file also carries the fetch pacer: MaxFetchRPS models "one proxy
// process = one machine of bounded capacity", which is what makes the
// federation load sweep's aggregate-RPS scaling measurable on a single box.

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	neturl "net/url"
	"strconv"
	"sync"
	"time"

	"baps/internal/federation"
	"baps/internal/intern"
	"baps/internal/obs"
	"baps/internal/proxy/docstore"
)

// JoinCluster federates this proxy with sibling proxies at the given base
// URLs and starts the digest exchange loop. Call after Start (the proxy's
// own base URL is its cluster identity). Each sibling must list this proxy
// symmetrically in its own JoinCluster call.
func (s *Server) JoinCluster(peers []string) error {
	if s.baseURL == "" {
		return errors.New("proxy: JoinCluster before Start")
	}
	fed, err := federation.New(federation.Config{
		Self:             s.baseURL,
		Peers:            peers,
		Interval:         s.cfg.DigestInterval,
		BreakerThreshold: s.cfg.BreakerThreshold,
		BreakerCooldown:  s.cfg.BreakerCooldown,
		Client:           s.peerClient,
		Logger:           s.logger,
		OnDigestSent:     func() { s.m.digestsSent.Inc() },
		OnDigestReceived: func() { s.m.digestsRecv.Inc() },
	}, s.localDocSet)
	if err != nil {
		return err
	}
	if !s.fed.CompareAndSwap(nil, fed) {
		return errors.New("proxy: already federated")
	}
	fed.Start()
	if s.logger != nil {
		s.logger.Info("joined federation", "self", s.baseURL, "siblings", len(peers))
	}
	return nil
}

// Cluster exposes the federation membership (nil on an unfederated proxy).
func (s *Server) Cluster() *federation.Cluster { return s.fed.Load() }

// localDocSet snapshots every URL this proxy can resolve without leaving the
// building: proxy cache residents (all tiers) plus every document at least
// one of its browsers indexes. This is the set the outbound digest summarizes.
func (s *Server) localDocSet() []string {
	out := s.docs.Keys() // distinct already
	seen := make(map[string]struct{}, len(out)*2)
	for _, k := range out {
		seen[k] = struct{}{}
	}
	s.idx.ForEachDoc(func(doc intern.ID) {
		u := s.syms.String(doc)
		if _, dup := seen[u]; !dup {
			seen[u] = struct{}{}
			out = append(out, u)
		}
	})
	return out
}

// fedNote feeds local directory mutations to the federation's drift counter
// (no-op on an unfederated proxy).
func (s *Server) fedNote(n int) {
	if n <= 0 {
		return
	}
	if fed := s.fed.Load(); fed != nil {
		fed.NoteMutation(n)
	}
}

// handlePeerDigest ingests POST /peer/digest — a sibling's pushed Bloom
// summary of its resolvable URL set.
func (s *Server) handlePeerDigest(w http.ResponseWriter, r *http.Request) {
	fed := s.fed.Load()
	if fed == nil {
		http.Error(w, "proxy: not federated", http.StatusServiceUnavailable)
		return
	}
	var msg federation.DigestMsg
	if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(&msg); err != nil {
		http.Error(w, "proxy: bad digest body", http.StatusBadRequest)
		return
	}
	raw, err := base64.StdEncoding.DecodeString(msg.Digest)
	if err != nil {
		http.Error(w, "proxy: bad digest encoding", http.StatusBadRequest)
		return
	}
	if err := fed.ObserveDocs(msg.From, raw, msg.Docs); err != nil {
		// Unknown sender or corrupt filter — not part of this cluster.
		http.Error(w, "proxy: digest rejected", http.StatusForbidden)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handlePeerLocate answers GET /peer/locate?url=U — the sibling's
// membership-check confirmation. It consults residency only (the store's
// Peek and the browser index), never touching LRU state or bodies, so a
// storm of locates cannot perturb replacement.
func (s *Server) handlePeerLocate(w http.ResponseWriter, r *http.Request) {
	if s.fed.Load() == nil {
		http.Error(w, "proxy: not federated", http.StatusServiceUnavailable)
		return
	}
	url := r.URL.Query().Get("url")
	if url == "" {
		http.Error(w, "proxy: missing url", http.StatusBadRequest)
		return
	}
	if _, _, st, _ := s.docs.Peek(url); st != docstore.MetaOnly {
		s.m.clusterLocateConfirms.Inc()
		writeJSON(w, LocateResponse{Held: true, Via: "cache"})
		return
	}
	if doc, known := s.syms.Lookup(url); known && s.health.anyLive(s.idx.AppendOrdered(nil, doc, -1, 0)) {
		s.m.clusterLocateConfirms.Inc()
		writeJSON(w, LocateResponse{Held: true, Via: "browser"})
		return
	}
	s.m.clusterLocateFPs.Inc()
	http.Error(w, "proxy: not held", http.StatusNotFound)
}

// handleClusterFetch serves a sibling's one-hop relay (/fetch with
// X-BAPS-Cluster-Hop: 1): local tiers, then this proxy's own browsers under
// fetch-forward (a hop is anonymous) — never the cluster tier or the origin.
// Accounted separately from client traffic so per-proxy hit ratios stay
// meaningful.
func (s *Server) handleClusterFetch(w http.ResponseWriter, r *http.Request, url string) {
	s.m.clusterServes.Inc()
	// Requester -1 throughout: the sibling cannot use a watermark made
	// under this proxy's key, so hop responses never cost a signature.
	if _, ok := s.serveLocal(w, nil, url, -1); ok {
		s.m.clusterServeHits.Inc()
		return
	}
	if !s.cfg.DisablePeer {
		if res := s.resolveRemote(r.Context(), url, -1); res.outcome != "" {
			s.m.clusterServeHits.Inc()
			s.serveDoc(w, nil, "", SourceProxy, url, res.body, res.meta, -1)
			return
		}
	}
	http.Error(w, "proxy: not held", http.StatusNotFound)
}

// resolveCluster is the fetch path's third tier: check sibling digests,
// confirm with /peer/locate, relay the body over a cluster-hop fetch. An
// empty outcome sends the caller to the origin. A cluster-wide miss is a
// *successful* empty result, not an error: the flight group re-runs leaders
// that fail, and a whole pack of coalesced misses retrying the sibling walk
// is exactly the stampede the group exists to prevent.
func (s *Server) resolveCluster(ctx context.Context, url string) fetchResult {
	fed := s.fed.Load()
	if fed == nil {
		return fetchResult{}
	}
	cands := fed.Candidates(url)
	if len(cands) == 0 {
		return fetchResult{}
	}
	obs.SpanFrom(ctx).Event("cluster_digest_hit", strconv.Itoa(len(cands))+" sibling digests claim url")
	res, shared, err := s.clusterFlight.Do(ctx, url, func() (fetchResult, error) {
		return s.clusterWalk(ctx, fed, url, cands), nil
	})
	if err != nil {
		return fetchResult{}
	}
	if shared && res.outcome != "" {
		obs.SpanFrom(ctx).Event("coalesced", "attached to in-flight cluster resolution")
	}
	return res
}

// clusterWalk tries each digest-claiming sibling in rendezvous order:
// locate (cheap) then relay (body). A notHeld answer is no breaker charge:
// from locate it is a Bloom false positive (accounted), from the relay an
// eviction that raced the locate (the sibling answered both times). Any
// other failure feeds the sibling's breaker exactly like a browser peer's.
func (s *Server) clusterWalk(ctx context.Context, fed *federation.Cluster, url string, cands []string) fetchResult {
	for _, peer := range cands {
		if ctx.Err() != nil {
			return fetchResult{}
		}
		err := s.locateAtSibling(ctx, peer, url)
		if notHeld(err) {
			fed.NoteFalsePositive(peer)
			obs.SpanFrom(ctx).Event("cluster_fp", "digest claimed, locate denied: "+peer)
			continue
		}
		var res fetchResult
		if err == nil {
			fed.NoteConfirm(peer)
			res, err = s.fetchFromSibling(ctx, peer, url)
		}
		if err != nil {
			if ctx.Err() != nil {
				return fetchResult{}
			}
			if !notHeld(err) {
				s.siblingFailed(fed, peer, err)
			}
			continue
		}
		fed.NoteFetch(peer)
		s.m.clusterFetches.Inc()
		obs.SpanFrom(ctx).Event("cluster_fetch", "relayed from "+peer)
		if s.cfg.CachePeerDocs {
			s.storeDoc(url, res.body, res.meta)
		}
		return res
	}
	return fetchResult{}
}

// siblingFailed charges one failed call to the sibling's breaker.
func (s *Server) siblingFailed(fed *federation.Cluster, peer string, err error) {
	if fed.NoteFailure(peer) {
		s.m.breakerOpened.Inc()
		if s.logger != nil {
			s.logger.Warn("sibling breaker opened", "sibling", peer, "err", err)
		}
	}
}

// locateAtSibling asks one sibling to commit to its digest's claim: nil
// means held, a notHeld error means the digest was a false positive.
func (s *Server) locateAtSibling(ctx context.Context, peer, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/peer/locate?url="+neturl.QueryEscape(url), nil)
	if err != nil {
		return err
	}
	_, _, err = s.getDoc(s.peerClient, req)
	return err
}

// fetchFromSibling relays url through a confirmed sibling with the
// cluster-hop header set. The result carries no digest: this proxy derives
// its own when a consumer needs one (withDigest).
func (s *Server) fetchFromSibling(ctx context.Context, peer, url string) (fetchResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/fetch?url="+neturl.QueryEscape(url), nil)
	if err != nil {
		return fetchResult{}, err
	}
	req.Header.Set(HeaderClusterHop, "1")
	body, hdr, err := s.getDoc(s.peerClient, req)
	if err != nil {
		return fetchResult{}, err
	}
	version, _ := strconv.ParseInt(hdr.Get(HeaderVersion), 10, 64)
	return fetchResult{
		body: body, meta: docMeta{version: version, size: int64(len(body))},
		source: SourceCluster, outcome: outClusterHit,
	}, nil
}

// fetchPacer is a per-instance admission gate: client-facing fetches are
// spaced to at most rps per second, modeling each proxy process as one
// machine of bounded capacity. On a federated single-box deployment (and the
// load harness) this is what makes aggregate throughput scale with proxy
// count instead of every instance contending for the same core. Cluster-hop
// serves bypass the pacer — relaying for a sibling is backplane traffic.
type fetchPacer struct {
	mu   sync.Mutex
	next time.Time
	step time.Duration
}

func newFetchPacer(rps int) *fetchPacer {
	return &fetchPacer{step: time.Second / time.Duration(rps)}
}

// wait reserves the next send slot and sleeps until it arrives, honoring the
// request context. Each caller gets a distinct slot, so concurrent requests
// serialize to the configured rate without thundering on a single timer.
func (p *fetchPacer) wait(ctx context.Context) error {
	p.mu.Lock()
	now := time.Now()
	if p.next.Before(now) {
		p.next = now
	}
	at := p.next
	p.next = p.next.Add(p.step)
	p.mu.Unlock()
	d := at.Sub(now)
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
