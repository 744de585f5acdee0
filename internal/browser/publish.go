package browser

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"baps/internal/bloom"
	"baps/internal/proxy"
)

// indexSink is the Batched-mode publish abstraction: standalone agents own a
// dedicated publisher goroutine; hosted agents share their AgentHost's
// hostPublisher, which multiplexes every hosted agent's deltas onto one
// /index/multibatch stream while keeping per-client generations intact.
type indexSink interface {
	enqueue(sd seqDelta)
	syncNow()
	stop(graceful bool)
}

// publisher is the Batched-mode publish queue: a dedicated goroutine that
// owns all index network I/O so store() and Evict() only enqueue. Deltas
// coalesce per URL (last write wins — a document cached and evicted between
// flushes ships as a single removal, or nothing if the proxy never saw it),
// and a flush is triggered by count, estimated wire bytes, or the interval
// ticker, whichever trips first.
//
// Reliability model: enqueue blocks when the channel is full (lossless
// backpressure, bounded memory), a failed flush keeps the pending map and
// the generation number intact so the retry is either the normal successor
// (proxy never saw it) or an idempotent retransmit (proxy saw it, reply was
// lost), and every DigestEvery-th batch carries a Bloom digest of the full
// directory so drift the generation numbers cannot see (a proxy restart)
// still triggers the proxy's /peer/resync pull.
type publisher struct {
	a *Agent

	ch      chan seqDelta
	syncReq chan chan struct{}
	quit    chan struct{} // graceful: drain + final flush
	abort   chan struct{} // abrupt (Kill): stop without flushing
	done    chan struct{}

	// mu guards closed. enqueue holds the read lock across its channel
	// send, so stop()'s write lock cannot be acquired while a send is in
	// flight — once stop holds it, no further sends can race the drain.
	mu     sync.RWMutex
	closed bool

	// Loop-owned state; never touched outside the loop goroutine.
	pending      map[string]seqDelta
	pendingBytes int64
	gen          uint64
	batches      uint64
}

// seqDelta orders deltas by the cache mutation they describe. The sequence
// number is assigned under the agent lock at mutation time and the channel
// send happens after unlock, under Agent.pubOrder, so one agent's deltas
// arrive in seq order (the host publisher relies on the same guarantee);
// coalescing still keeps the highest seq per URL as a second guard.
type seqDelta struct {
	seq uint64
	d   proxy.IndexDelta
}

// deltaOverhead approximates the per-delta JSON framing beyond the URL.
const deltaOverhead = 48

func newPublisher(a *Agent) *publisher {
	return &publisher{
		a:       a,
		ch:      make(chan seqDelta, 256),
		syncReq: make(chan chan struct{}),
		quit:    make(chan struct{}),
		abort:   make(chan struct{}),
		done:    make(chan struct{}),
		pending: make(map[string]seqDelta),
	}
}

// enqueue hands a delta to the publish goroutine. It blocks if the queue is
// full — backpressure instead of loss — and is a no-op after stop. Callers
// must NOT hold a.mu: the loop takes that lock for digests and full syncs,
// and a blocked send under it would deadlock.
func (p *publisher) enqueue(sd seqDelta) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return
	}
	p.ch <- sd
}

// syncNow asks the loop to replace the pending deltas with a full
// /index/sync and waits for it to finish (no-op after stop).
func (p *publisher) syncNow() {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return
	}
	ack := make(chan struct{})
	select {
	case p.syncReq <- ack:
	case <-p.quit:
		p.mu.RUnlock()
		return
	case <-p.abort:
		p.mu.RUnlock()
		return
	}
	p.mu.RUnlock()
	<-ack
}

// stop shuts the loop down. graceful drains the queue and flushes what is
// pending (Close); otherwise queued deltas are dropped (Kill). Safe to call
// more than once; every call waits for the loop to exit.
func (p *publisher) stop(graceful bool) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.done
		return
	}
	p.closed = true
	p.mu.Unlock()
	if graceful {
		close(p.quit)
	} else {
		close(p.abort)
	}
	<-p.done
}

// loop is the publish goroutine.
func (p *publisher) loop() {
	defer close(p.done)
	t := time.NewTicker(p.a.cfg.BatchMaxDelay)
	defer t.Stop()
	for {
		select {
		case sd := <-p.ch:
			p.absorb(sd)
			if len(p.pending) >= p.a.cfg.BatchMaxCount || p.pendingBytes >= p.a.cfg.BatchMaxBytes {
				p.flush()
			}
		case <-t.C:
			if len(p.pending) > 0 {
				p.flush()
			}
		case ack := <-p.syncReq:
			p.drainQueued()
			p.fullSync()
			close(ack)
		case <-p.quit:
			p.drainQueued()
			if len(p.pending) > 0 {
				p.flush()
			}
			return
		case <-p.abort:
			return
		}
	}
}

// absorb folds one delta into the pending map: the delta describing the
// newest cache mutation (highest seq) wins, regardless of arrival order.
func (p *publisher) absorb(sd seqDelta) {
	if sd.d.URL == "" {
		return
	}
	prev, dup := p.pending[sd.d.URL]
	if dup && prev.seq > sd.seq {
		return // a newer mutation for this URL already arrived
	}
	if !dup {
		p.pendingBytes += int64(len(sd.d.URL)) + deltaOverhead
	}
	p.pending[sd.d.URL] = sd
}

// drainQueued empties the ingress channel into pending without blocking.
// Callers (final flush, full sync, pre-digest) want the batch to reflect
// every delta produced so far.
func (p *publisher) drainQueued() {
	for {
		select {
		case sd := <-p.ch:
			p.absorb(sd)
		default:
			return
		}
	}
}

// flush ships the pending deltas as one generation-numbered batch. On
// success the pending map clears and the generation advances; on failure
// both stay put, so the retry reuses the same generation (the proxy treats
// gen==last as an idempotent retransmit).
func (p *publisher) flush() {
	gen := p.gen + 1
	batch := proxy.IndexBatch{ClientID: p.a.id, Gen: gen}
	p.batches++
	if every := p.a.cfg.DigestEvery; every > 0 && p.batches%uint64(every) == 0 {
		// Pull in any deltas still queued first: the digest covers the
		// directory as of now, so the batch should too, or the proxy
		// compares against a view missing the in-flight tail.
		p.drainQueued()
		batch.Digest = p.a.directoryDigest()
	}
	batch.Deltas = make([]proxy.IndexDelta, 0, len(p.pending))
	for _, sd := range p.pending {
		batch.Deltas = append(batch.Deltas, sd.d)
	}
	if !p.a.postBatch(batch) {
		return
	}
	p.gen = gen
	clear(p.pending)
	p.pendingBytes = 0
}

// fullSync replaces the pending deltas with a full directory re-sync (the
// /peer/resync recovery path and SyncIndexNow). The sync carries the next
// generation so the proxy re-seats its counter and the following batch is
// not misread as a gap. On failure the directory is re-queued as pending
// adds — nothing is lost; removals the proxy still believes in are healed
// by the next digest-triggered resync.
func (p *publisher) fullSync() {
	a := p.a
	now := nowStamp()
	a.mu.Lock()
	entries := a.directoryLocked(now)
	a.changes = 0
	// The snapshot seq: deltas for mutations after this point carry a
	// higher seq and must survive being absorbed alongside the snapshot.
	snapSeq := a.deltaSeq
	a.mu.Unlock()
	gen := p.gen + 1
	if a.indexSync(entries, gen) {
		p.gen = gen
		clear(p.pending)
		p.pendingBytes = 0
		return
	}
	for _, e := range entries {
		p.absorb(seqDelta{seq: snapSeq, d: proxy.IndexDelta{
			URL: e.URL, Size: e.Size, Version: e.Version, Stamp: e.Stamp,
		}})
	}
}

// directoryDigest builds the Bloom digest of the agent's full cache
// directory: the base64 MarshalBinary of a filter sized for the resident
// count at 1% FPR. The proxy rebuilds the same geometry over its believed
// directory and compares bit-for-bit.
func (a *Agent) directoryDigest() string {
	a.mu.Lock()
	keys := a.cache.Keys()
	f, err := bloom.NewFilterForFPR(max(len(keys), 1), 0.01)
	if err != nil {
		a.mu.Unlock()
		return ""
	}
	for _, k := range keys {
		f.Add(k)
	}
	a.mu.Unlock()
	raw, err := f.MarshalBinary()
	if err != nil {
		return ""
	}
	return base64.StdEncoding.EncodeToString(raw)
}

// postBatch POSTs one /index/batch and reports acceptance (2xx).
func (a *Agent) postBatch(batch proxy.IndexBatch) bool {
	body, _ := json.Marshal(batch)
	req, err := http.NewRequest(http.MethodPost, a.cfg.ProxyURL+"/index/batch", bytes.NewReader(body))
	if err != nil {
		return false
	}
	a.authHeaders(req)
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.httpClient.Do(req)
	if err != nil {
		a.indexPublishFailure("batch", err, 0)
		return false
	}
	proxy.DrainClose(resp)
	if resp.StatusCode/100 != 2 {
		a.indexPublishFailure("batch", nil, resp.StatusCode)
		return false
	}
	a.addMetric(func(m *Metrics) { m.IndexBatches++ })
	return true
}
