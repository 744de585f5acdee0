package proxy

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	neturl "net/url"
	"strconv"
	"time"

	"baps/internal/anonymity"
	"baps/internal/bufpool"
	"baps/internal/integrity"
	"baps/internal/obs"
)

// handleFetch is the client-facing resolution pipeline: proxy cache →
// browser index (remote browsers, hedged against the origin past the soft
// deadline) → origin with retry/backoff. The request's context is threaded
// through every downstream call, so a disconnecting client cancels its peer
// contacts and origin fetch.
func (s *Server) handleFetch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "proxy: GET only", http.StatusMethodNotAllowed)
		return
	}
	url := r.URL.Query().Get("url")
	if url == "" {
		http.Error(w, "proxy: missing url", http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	if r.Header.Get(HeaderClusterHop) == "1" {
		// A sibling proxy's one-hop relay: local tiers + own browsers
		// only, separate accounting, no admission pacing (see cluster.go).
		s.handleClusterFetch(w, r, url)
		return
	}
	// A caller claiming a client identity must prove it with the
	// registration token, exactly like /index/* and /report-bad —
	// otherwise any caller could impersonate a requester and skew
	// holder-selection and serve accounting. Anonymous fetches (no
	// client header) remain allowed.
	requester := -1
	if r.Header.Get(HeaderClient) != "" {
		id, ok := s.authClient(r)
		if !ok {
			http.Error(w, "proxy: bad client credentials", http.StatusForbidden)
			return
		}
		requester = id
	}
	if s.pacer != nil {
		// Admission pacing: each client-facing fetch waits for its
		// capacity slot (MaxFetchRPS models per-instance capacity).
		if err := s.pacer.wait(ctx); err != nil {
			s.m.requests.Inc()
			s.m.outCanceled.Inc()
			http.Error(w, "proxy: request canceled", http.StatusGatewayTimeout)
			return
		}
	}
	s.m.requests.Inc()
	s.notePop(url)
	start := time.Now()
	sp := s.tracer.StartSpan("fetch")
	sp.SetClient(requester)
	sp.SetURL(url)
	ctx = obs.WithSpan(ctx, sp)

	book := &outcomeBook{m: s.m}
	outcome := s.resolveFetch(ctx, w, book, url, requester, r.Header.Get(HeaderNoPeer) == "1")

	dur := time.Since(start)
	book.book(outcome) // a no-op unless the outcome was only final at the end
	s.m.fetchDur.Observe(dur.Seconds())
	sp.Finish(outcome, nil)
	if s.logger != nil {
		s.logger.Info("fetch",
			"url", url,
			"client", requester,
			"outcome", outcome,
			"duration_ms", float64(dur.Microseconds())/1e3)
	}
}

// outcomeBook counts one /fetch request's outcome on
// baps_proxy_fetch_outcomes_total exactly once, at the point it is decided:
// before the first body byte, so a client that has read its whole response
// always finds the request counted. Only a disk-streamed hit, whose read can
// still fail mid-body and turn it into an error, is booked after the body
// (by handleFetch). A nil book counts nothing: cluster-hop serves share the
// serve paths and are accounted separately.
type outcomeBook struct {
	m      *serverMetrics
	booked bool
}

func (b *outcomeBook) book(outcome string) {
	if b == nil || b.booked {
		return
	}
	b.booked = true
	b.m.outcomeCounter(outcome).Inc()
}

// fetchResult is one acquisition — from a holder, a sibling or the origin —
// and every miss resolution: the document (buffered body, direct-forward
// stream, or an onion delivery under way) plus everything needed to write
// the response and account the outcome. An empty outcome is a miss that is
// not an error (no holder delivered, no sibling confirmed). Buffered results
// are immutable and safely shared across coalesced requests; streamed
// results are requester-specific and never enter the flight group.
type fetchResult struct {
	body     []byte
	stream   *relayStream
	meta     docMeta
	source   string
	ticket   string
	viaOnion bool
	outcome  string
}

// resolveFetch runs the decision path — proxy cache, coalesced miss
// resolution (browser index with hedged origin, then plain origin) — writes
// the response, and reports which outcome was taken (one of the out*
// constants).
func (s *Server) resolveFetch(ctx context.Context, w http.ResponseWriter, book *outcomeBook, url string, requester int, noPeer bool) string {
	// 1. Proxy cache: memory tier, spill stage, then the disk store.
	if outcome, ok := s.serveLocal(w, book, url, requester); ok {
		return outcome
	}

	peerEligible := !s.cfg.DisablePeer && !noPeer

	// 2+3. Miss resolution: remote browsers (hedged with the origin), then
	// the origin. Fetch-forward (or a miss with peers out of the picture)
	// resolves a requester-independent document, so concurrent misses for
	// one URL coalesce: a single leader resolves, followers reuse its
	// result. A registered client's direct- or onion-forward delivery is
	// addressed to it alone (one-time relay drop / covert path), so it
	// resolves per-request — its origin fallback still coalesces inside
	// fetchUpstream.
	if peerEligible && s.forwardFor(requester) != FetchForward {
		res, err := s.resolveMiss(ctx, url, requester, true)
		return s.writeResolution(ctx, w, book, res, err, requester, false)
	}
	key := url
	if !peerEligible {
		// A no-peer resolution (client retrying after a watermark
		// rejection, or a peer-disabled proxy) must never attach to a
		// peer-path round; it keys separately.
		key = "\x00nopeer|" + url
	}
	res, shared, err := s.missFlight.Do(ctx, key, func() (fetchResult, error) {
		return s.resolveMiss(ctx, url, requester, peerEligible)
	})
	if shared {
		obs.SpanFrom(ctx).Event("coalesced", "attached to in-flight resolution")
	}
	return s.writeResolution(ctx, w, book, res, err, requester, shared)
}

// writeResolution writes a completed (or failed) miss resolution and reports
// the outcome, booking it before the first body byte and bumping the
// coalesced counter when the result was shared from another request's round.
// The watermark follows this requester, not the round's leader: a registered
// follower of an anonymous leader gets one.
func (s *Server) writeResolution(ctx context.Context, w http.ResponseWriter, book *outcomeBook, res fetchResult, err error, requester int, shared bool) string {
	outcome := res.outcome
	switch {
	case err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil):
		outcome = outCanceled
		book.book(outcome)
		http.Error(w, "proxy: request canceled", http.StatusGatewayTimeout)
	case err != nil:
		outcome = outError
		book.book(outcome)
		http.Error(w, fmt.Sprintf("proxy: upstream: %v", err), http.StatusBadGateway)
	case res.viaOnion:
		// The document travels browser-to-browser over the covert
		// path; this response only announces it.
		book.book(outcome)
		w.Header().Set(HeaderOnion, "1")
		w.Header().Set(HeaderSource, SourceRemote)
		w.WriteHeader(http.StatusOK)
	case res.stream != nil:
		// A relay that aborts mid-copy is booked on relay_stream_errors;
		// the outcome is the holder's delivery either way.
		book.book(outcome)
		s.serveStream(w, res)
	default:
		if s.serveDoc(w, book, outcome, res.source, res.body, res.meta, requester) != nil {
			outcome = outError
		}
	}
	if shared {
		s.m.coalesced.With(outcome).Inc()
	}
	return outcome
}

// resolveMiss resolves a proxy-cache miss to a document without touching the
// ResponseWriter (so the result can be shared across coalesced requests): the
// remote-browser walk, raced against the origin once it exceeds
// PeerSoftDeadline (a slow or dying holder must never make a request slower
// than a plain proxy miss), then the sibling proxies, then the origin.
func (s *Server) resolveMiss(ctx context.Context, url string, requester int, peerEligible bool) (fetchResult, error) {
	if !peerEligible {
		return s.fetchUpstream(ctx, url)
	}
	peerCh := make(chan fetchResult, 1)
	go func() { peerCh <- s.resolveRemote(ctx, url, requester) }()

	var hedge <-chan time.Time
	if s.cfg.PeerSoftDeadline > 0 {
		t := time.NewTimer(s.cfg.PeerSoftDeadline)
		defer t.Stop()
		hedge = t.C
	}
	// The hedged origin fetch writes origin and originErr, then closes
	// originDone; they are read only after it is closed.
	var originDone chan struct{}
	var origin fetchResult
	var originErr error
	for {
		select {
		case p := <-peerCh:
			if p.outcome != "" {
				return p, nil
			}
			// Peer path exhausted; fall back to whatever the hedge
			// has (or will have), else go on to the next tiers.
			if originDone != nil {
				select {
				case <-originDone:
					return origin, originErr
				case <-ctx.Done():
					return fetchResult{}, ctx.Err()
				}
			}
			if originErr != nil {
				return fetchResult{}, originErr
			}
			// Cluster tier: local browsers came up empty; check the
			// sibling proxies' digests before paying for an origin trip.
			if res := s.resolveCluster(ctx, url); res.outcome != "" {
				return res, nil
			}
			return s.fetchUpstream(ctx, url)
		case <-hedge:
			hedge = nil
			obs.SpanFrom(ctx).Event("hedge", "peer soft deadline exceeded; racing origin")
			originDone = make(chan struct{})
			go func() {
				origin, originErr = s.fetchUpstream(ctx, url)
				close(originDone)
			}()
		case <-originDone:
			if originErr == nil {
				// The origin answered while the peer path was still
				// grinding: hedged win. The walk may still deliver a
				// direct-forward stream later; release it.
				go abandonPeer(peerCh)
				origin.outcome = outOriginHedged
				return origin, nil
			}
			originDone = nil
		case <-ctx.Done():
			go abandonPeer(peerCh)
			return fetchResult{}, ctx.Err()
		}
	}
}

// abandonPeer consumes a peer-walk result nobody will serve, releasing any
// direct-forward stream (and the holder blocked behind it). The walk itself
// winds down on its own once the request context dies.
func abandonPeer(peerCh <-chan fetchResult) {
	if p := <-peerCh; p.stream != nil {
		p.stream.finish(errRelayAbandoned)
	}
}

// serveStream relays a direct-forward delivery straight from the holder's
// push to the requester through a pooled copy buffer — the document never
// lands in proxy memory. The requester, always a registered client
// (forwardFor), verifies the holder's watermark end-to-end.
func (s *Server) serveStream(w http.ResponseWriter, res fetchResult) {
	st := res.stream
	st.claim()
	w.Header().Set("X-BAPS-Ticket", res.ticket)
	w.Header().Set(HeaderSource, res.source)
	w.Header().Set(HeaderVersion, strconv.FormatInt(res.meta.version, 10))
	if st.mark != "" {
		w.Header().Set(HeaderWatermark, st.mark)
	}
	if st.length >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(st.length, 10))
	}
	w.WriteHeader(http.StatusOK)
	_, err := bufpool.CopySized(w, st.r, st.length)
	if err != nil {
		s.m.relayStreamErrors.Inc()
		if errors.Is(err, ErrDocTooLarge) {
			s.m.docTooLarge.Inc()
		}
	}
	st.finish(err)
}

// writeDocHeaders commits a document response's headers (meta.size is the
// Content-Length). The watermark is derived only for a registered client —
// the only callers that verify one or re-serve the document to a peer;
// anonymous and cluster-hop callers (requester < 0) get none and cost no
// signature. If it cannot be derived the response is a 500 and the error is
// returned: a verifying agent reads an unmarked 200 as tampering.
func (s *Server) writeDocHeaders(w http.ResponseWriter, source string, meta docMeta, requester int) error {
	if requester >= 0 && meta.digest != nil {
		mark, err := s.watermarkFor(meta.digest)
		if err != nil {
			http.Error(w, "proxy: watermark unavailable", http.StatusInternalServerError)
			return err
		}
		w.Header().Set(HeaderWatermark, mark)
	}
	w.Header().Set(HeaderSource, source)
	w.Header().Set(HeaderVersion, strconv.FormatInt(meta.version, 10))
	w.Header().Set("Content-Length", strconv.FormatInt(meta.size, 10))
	w.WriteHeader(http.StatusOK)
	return nil
}

// serveDoc writes a buffered document to requester, booking outcome before
// the body (a short 500 stays in the response buffer until the handler
// returns). The only failure it reports is writeDocHeaders': the response is
// then already a 500.
func (s *Server) serveDoc(w http.ResponseWriter, book *outcomeBook, outcome, source string, body []byte, meta docMeta, requester int) error {
	meta.size = int64(len(body))
	if err := s.writeDocHeaders(w, source, meta, requester); err != nil {
		book.book(outError)
		return err
	}
	book.book(outcome)
	w.Write(body)
	return nil
}

// cacheLookup serves from the proxy's memory tier, promoting on hit (tests
// use it to probe residency; the request path goes through serveLocal).
func (s *Server) cacheLookup(url string) ([]byte, docMeta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.docs[url]
	if r == nil || r.state != docMemory {
		return nil, docMeta{}, false
	}
	body, meta := r.body, r.meta
	s.touchLocked(url, r)
	return body, meta, true
}

// storeDoc caches a document body at the proxy. The caller hands over
// ownership of body — every call site passes a buffer it freshly read off
// the wire and only ever reads afterwards, so no defensive copy is taken.
func (s *Server) storeDoc(url string, body []byte, meta docMeta) {
	if meta.storedAt.IsZero() {
		meta.storedAt = time.Now()
	}
	s.mu.Lock()
	// modified: a newer version than recorded, i.e. an origin-side change
	// whose stale copies may still live in browsers and sibling proxies
	// (handled after unlock).
	modified := s.storeDocLocked(url, body, meta)
	// Every cache store widens the local resolvable set the federation
	// digest advertises (no-op unfederated; lock order is s.mu → fed.mu,
	// and the digest builder's source snapshot never runs under fed.mu).
	s.fedNote(1)
	s.mu.Unlock()
	if modified {
		s.onModified(url, meta.version, false)
	}
}

// fetchUpstream obtains the document from the origin and records its digest.
// Concurrent fetches of one URL are coalesced through the flight group: one
// leader pays the origin round trip, followers share its result, a failed
// leader's followers retry independently, and waiters still honor their own
// context.
func (s *Server) fetchUpstream(ctx context.Context, url string) (fetchResult, error) {
	res, _, err := s.originFlight.Do(ctx, url, func() (fetchResult, error) {
		return s.fetchUpstreamUncoalesced(ctx, url)
	})
	return res, err
}

// transientUpstream classifies failures worth retrying: transport-level
// errors (refused, reset, timed out) and throttling/5xx statuses. Client
// errors (4xx) and local failures (read, oversize) are terminal.
func transientUpstream(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500 || se.code == http.StatusTooManyRequests
	}
	var ue *neturl.Error
	return errors.As(err, &ue)
}

// fetchUpstreamUncoalesced retries transient origin failures with
// exponential backoff and full jitter, bounded by OriginRetries and the
// request context.
func (s *Server) fetchUpstreamUncoalesced(ctx context.Context, url string) (fetchResult, error) {
	delay := retryBaseDelay
	var lastErr error
	for attempt := 0; attempt <= s.cfg.OriginRetries; attempt++ {
		if attempt > 0 {
			s.m.originRetries.Inc()
			obs.SpanFrom(ctx).Event("origin_retry", "attempt "+strconv.Itoa(attempt))
			// Jittered sleep in [delay/2, delay] keeps synchronized
			// retry herds off a recovering origin.
			d := delay/2 + time.Duration(rand.Int64N(int64(delay/2)+1))
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return fetchResult{}, lastErr
			}
			delay *= 2
		}
		res, err := s.originAttempt(ctx, url)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if ctx.Err() != nil || !transientUpstream(err) {
			break
		}
	}
	return fetchResult{}, lastErr
}

// originAttempt performs one origin round trip through getDoc; the buffer
// moves into the cache without a defensive copy. Nothing is signed here: the
// digest is all a later watermark needs (watermarkFor).
func (s *Server) originAttempt(ctx context.Context, url string) (fetchResult, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return fetchResult{}, err
	}
	body, digest, hdr, err := s.getDoc(s.originClient, req)
	if err != nil {
		return fetchResult{}, err
	}
	meta := originMeta(body, digest, hdr, time.Now())
	s.storeDoc(url, body, meta)
	s.m.originFetch.Observe(time.Since(start).Seconds())
	return fetchResult{body: body, meta: meta, source: SourceOrigin, outcome: outOrigin}, nil
}

// originMeta records an origin reply's document metadata, stored at now.
func originMeta(body, digest []byte, hdr http.Header, now time.Time) docMeta {
	version, _ := strconv.ParseInt(hdr.Get("X-Origin-Version"), 10, 64)
	return docMeta{
		version:  version,
		size:     int64(len(body)),
		digest:   digest,
		lastMod:  hdr.Get("Last-Modified"),
		storedAt: now,
	}
}

// forwardFor is how a remote hit reaches requester. An anonymous requester (a
// plain client or a sibling's cluster hop, both -1) cannot verify a watermark,
// so it always gets fetch-forward, the one mode in which the proxy checks the
// body; a registered client gets the configured mode.
func (s *Server) forwardFor(requester int) ForwardMode {
	if requester < 0 {
		return FetchForward
	}
	return s.cfg.Forward
}

// resolveRemote walks the index's holders for url and returns the first
// delivery, or a result with an empty outcome. forwardFor picks how a holder
// delivers: in fetch-forward the proxy retrieves and verifies the body
// itself; in direct-forward it opens an anonymous relay drop and instructs
// the holder to push there, returning the push as a live stream; in
// onion-forward it launches the document onto a covert path of relay
// browsers and reports viaOnion (no body passes through).
//
// Candidates are gated by the per-peer circuit breaker: a tripped peer is
// skipped entirely (all its entries sit in quarantine), except that once
// its cooldown elapses one request is admitted as a half-open probe — a
// success re-admits every quarantined entry in one step. A holder that
// fails is pruned; its breaker is charged unless it answered notHeld.
func (s *Server) resolveRemote(ctx context.Context, url string, requester int) fetchResult {
	mode := s.forwardFor(requester)
	doc, known := s.syms.Lookup(url)
	if !known {
		// Never indexed by any browser: no holders can exist.
		return fetchResult{}
	}
	candidates := s.idx.Ordered(doc, requester)
	// Quarantined holders come last, as half-open probe candidates.
	candidates = append(candidates, s.idx.OrderedQuarantined(doc, requester)...)
	if len(candidates) > 0 {
		obs.SpanFrom(ctx).Event("index_hit", strconv.Itoa(len(candidates))+" holders")
	}
	for _, e := range candidates {
		if ctx.Err() != nil {
			return fetchResult{}
		}
		if !s.health.Allow(e.Client) {
			continue // breaker open
		}
		s.mu.Lock()
		peer, registered := s.peers[e.Client]
		s.mu.Unlock()
		if !registered {
			s.idx.Remove(e.Client, doc)
			continue
		}
		start := time.Now()
		var res fetchResult
		var err error
		switch mode {
		case FetchForward:
			res, err = s.fetchFromPeer(ctx, peer, url)
		case OnionForward:
			res, err = s.onionFromPeer(ctx, peer, url, requester)
		default:
			res, err = s.relayFromPeer(ctx, peer, url)
		}
		if err != nil {
			if ctx.Err() != nil {
				// The requester canceled (or the hedge already won);
				// not the peer's fault — record nothing.
				return fetchResult{}
			}
			s.m.falsePeer.Inc()
			obs.SpanFrom(ctx).Event("peer_miss", "client "+strconv.Itoa(e.Client)+": "+err.Error())
			s.idx.Remove(e.Client, doc)
			if notHeld(err) {
				// The peer is alive, it just evicted the document.
				s.health.Touch(e.Client)
			} else if s.health.Failure(e.Client) {
				s.m.breakerOpened.Inc()
				s.idx.Quarantine(e.Client)
				if s.logger != nil {
					s.logger.Warn("breaker opened", "client", e.Client, "err", err)
				}
			}
			continue
		}
		elapsed := time.Since(start)
		if s.health.Success(e.Client, elapsed) {
			s.m.breakerClosed.Inc()
			s.idx.Unquarantine(e.Client)
			if s.logger != nil {
				s.logger.Info("breaker closed", "client", e.Client)
			}
		}
		s.idx.AccountServe(e.Client)
		s.m.peerFetchDur.Observe(elapsed.Seconds())
		s.m.peerServes.WithInt(e.Client).Inc()
		// Onion deliveries bypass the proxy and streamed relays are still
		// in flight, so the served size comes from the index entry when
		// the relayed payload length is unknown.
		served := res.meta.size
		if res.viaOnion || served < 0 {
			served = e.Size
		}
		s.m.peerServeBytes.WithInt(e.Client).Add(served)
		obs.SpanFrom(ctx).Event("peer_serve", "client "+strconv.Itoa(e.Client))
		if mode == FetchForward && s.cfg.CachePeerDocs {
			s.storeDoc(url, res.body, res.meta)
		}
		return res
	}
	return fetchResult{}
}

// fetchFromPeer retrieves url from a holder's peer server and verifies the
// body against the proxy's recorded digest (§6.1 enforced proxy-side: a
// tampering holder is pruned and skipped). getDoc hashes the body as it
// streams in — one pass, no re-hash.
func (s *Server) fetchFromPeer(ctx context.Context, peer peerInfo, url string) (fetchResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer.baseURL+"/peer/doc?url="+neturl.QueryEscape(url), nil)
	if err != nil {
		return fetchResult{}, err
	}
	req.Header.Set(HeaderToken, peer.token)
	body, digest, hdr, err := s.getDoc(s.peerClient, req)
	if err != nil {
		return fetchResult{}, err
	}
	version, _ := strconv.ParseInt(hdr.Get(HeaderVersion), 10, 64)
	res := fetchResult{body: body, source: SourceRemote, outcome: outPeerFetch}

	var known docMeta
	s.mu.Lock()
	r := s.docs[url]
	if r != nil {
		known = r.meta
	}
	s.mu.Unlock()
	if r != nil && known.version == version {
		if !bytes.Equal(digest, known.digest) {
			s.m.watermarkRejected.Inc()
			return fetchResult{}, fmt.Errorf("digest mismatch from client %d", peer.id)
		}
		s.m.watermarkVerified.Inc()
		res.meta = known
		return res, nil
	}
	// The proxy has no record for this version (e.g. restarted): accept
	// the body only if the holder's stored watermark verifies under our key.
	mark, err := base64.StdEncoding.DecodeString(hdr.Get(HeaderWatermark))
	if err == nil {
		k, kerr := s.signingKey()
		if kerr != nil {
			// Without the key nothing verifies: fail closed. The walk
			// books this like any other failed holder.
			return fetchResult{}, kerr
		}
		err = integrity.VerifyDigest(k.signer.Public(), digest, mark)
	}
	if err != nil {
		s.m.watermarkRejected.Inc()
		return fetchResult{}, fmt.Errorf("unverifiable peer content from client %d", peer.id)
	}
	s.m.watermarkVerified.Inc()
	res.meta = docMeta{version: version, size: int64(len(body)), digest: digest}
	return res, nil
}

// relayFromPeer implements direct-forward: open a relay session under a fresh
// ticket, tell the holder to push the document to the relay drop, and hand the
// arriving push back as a live stream. The holder learns only the relay URL;
// the requester never learns the holder. A session that is not delivered ends
// with this call; a delivered one joins the ring.
//
// The send instruction is dispatched asynchronously: with streamed relays
// the holder's push completes only after the requester consumes it, which in
// turn happens only after this function returns — awaiting the send's HTTP
// response first would deadlock the pipeline.
func (s *Server) relayFromPeer(ctx context.Context, peer peerInfo, url string) (fetchResult, error) {
	ticket, err := anonymity.NewTicket()
	if err != nil {
		return fetchResult{}, err
	}
	session := &relaySession{holder: peer.id, ch: make(chan relayDelivery, 1)}
	s.relayMu.Lock()
	s.relays[ticket] = session
	s.relayMu.Unlock()

	send, _ := json.Marshal(PeerSend{URL: url, RelayURL: s.baseURL + "/relay/" + string(ticket)})
	sendCh := make(chan error, 1)
	go func() {
		sendCh <- Post(ctx, s.peerClient, peer.baseURL+"/peer/send", send,
			HeaderToken, peer.token, "Content-Type", "application/json")
	}()

	timeout := time.NewTimer(s.cfg.PeerTimeout)
	defer timeout.Stop()
	for err == nil {
		select {
		case d := <-session.ch:
			s.relayMu.Lock()
			s.keepDelivered(ticket)
			s.relayMu.Unlock()
			version, _ := strconv.ParseInt(d.version, 10, 64)
			// The proxy relays without inspecting the body (anonymizing
			// relay); the requester verifies the watermark end-to-end.
			return fetchResult{
				stream: d.stream, meta: docMeta{version: version, size: d.stream.length},
				source: SourceRemote, ticket: string(ticket), outcome: outPeerDirect,
			}, nil
		case err = <-sendCh:
			sendCh = nil // nil: send acknowledged; keep waiting for the push
		case <-timeout.C:
			s.m.relayTimeouts.Inc()
			err = fmt.Errorf("relay timeout waiting for client %d", peer.id)
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	s.relayMu.Lock()
	delete(s.relays, ticket)
	s.relayMu.Unlock()
	return fetchResult{}, err
}

// keepDelivered puts a delivered ticket in the ring of the last
// len(s.delivered), ending the session of the oldest it overwrites (one at a
// time, never a wholesale wipe). The caller holds relayMu.
func (s *Server) keepDelivered(ticket anonymity.Ticket) {
	delete(s.relays, s.delivered[s.deliveredNext])
	s.delivered[s.deliveredNext] = ticket
	s.deliveredNext = (s.deliveredNext + 1) % len(s.delivered)
}

// handleRelay accepts a holder's push at /relay/{ticket} and hands the
// request body to the waiting /fetch goroutine as a live stream, blocking
// the push until the requester has consumed it (or abandoned it). The
// document itself never enters proxy memory. A session takes one push, and
// only while its fetch waits; every other push is refused with a 403.
func (s *Server) handleRelay(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "proxy: POST only", http.StatusMethodNotAllowed)
		return
	}
	s.relayMu.Lock()
	session := s.relays[anonymity.Ticket(r.URL.Path[len("/relay/"):])]
	waiting := session != nil && !session.pushed
	if waiting {
		session.pushed = true
	}
	s.relayMu.Unlock()
	if !waiting {
		http.Error(w, "proxy: bad or spent ticket", http.StatusForbidden)
		return
	}
	if r.ContentLength > maxDocBytes {
		s.m.docTooLarge.Inc()
		http.Error(w, "proxy: document too large", http.StatusRequestEntityTooLarge)
		return
	}
	stream := newRelayStream(newCappedReader(r.Body, maxDocBytes), r.ContentLength)
	stream.mark = r.Header.Get(HeaderWatermark)
	// Never blocks: ch holds one delivery and a session takes one push.
	session.ch <- relayDelivery{stream: stream, version: r.Header.Get(HeaderVersion)}
	// Phase 1: wait for a consumer to claim the stream (or for the
	// delivery to be abandoned / time out unclaimed).
	unclaimed := time.NewTimer(s.cfg.PeerTimeout)
	defer unclaimed.Stop()
	select {
	case <-stream.claimed:
	case err := <-stream.done:
		if err != nil {
			http.Error(w, "proxy: relay abandoned", http.StatusGone)
			return
		}
		w.WriteHeader(http.StatusNoContent)
		return
	case <-unclaimed.C:
		s.m.relayStreamErrors.Inc()
		http.Error(w, "proxy: relay unclaimed", http.StatusGatewayTimeout)
		return
	case <-r.Context().Done():
		return
	}
	// Phase 2: a consumer is copying; hold the push open until it finishes.
	select {
	case err := <-stream.done:
		if err != nil {
			http.Error(w, "proxy: relay stream aborted", http.StatusBadGateway)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case <-r.Context().Done():
		// Holder gave up mid-push; the consumer sees the read error.
	}
}

// handleReportBad processes a requester's watermark-rejection report. Every
// report counts on watermark_rejected, but only a delivered relay session
// names the holder behind the bytes (identities stay hidden from the
// requester): that holder's entry is pruned and its breaker charged. A report
// without one — a fetch-forward response carries no ticket — prunes nothing.
func (s *Server) handleReportBad(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "proxy: POST only", http.StatusMethodNotAllowed)
		return
	}
	id, ok := s.authClient(r)
	if !ok {
		http.Error(w, "proxy: bad client credentials", http.StatusForbidden)
		return
	}
	var rep BadContentReport
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&rep); err != nil || rep.ClientID != id {
		http.Error(w, "proxy: bad report", http.StatusBadRequest)
		return
	}
	s.m.watermarkRejected.Inc()
	s.relayMu.Lock()
	session := s.relays[anonymity.Ticket(rep.Ticket)]
	delivered := session != nil && session.pushed
	s.relayMu.Unlock()
	if delivered {
		if doc, known := s.syms.Lookup(rep.URL); known {
			s.idx.Remove(session.holder, doc)
		}
		s.health.Failure(session.holder)
	}
	w.WriteHeader(http.StatusNoContent)
}
