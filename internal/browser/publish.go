package browser

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"baps/internal/bloom"
	"baps/internal/proxy"
)

// Flush limits of the publisher: a standalone agent's serves one member, an
// AgentHost's serves the whole fleet. A flush is triggered by whichever trips
// first — coalesced deltas, estimated wire bytes, or batchMaxDelay
// since the last tick — and the ingress queue holds two flushes' worth of
// deltas before enqueue blocks.
const (
	agentFlushDeltas = 128
	agentFlushBytes  = 256 << 10
	hostFlushDeltas  = 2048
	hostFlushBytes   = 1 << 20
)

// deltaOverhead approximates the per-delta JSON framing beyond the URL.
const deltaOverhead = 48

// publisher is the one index publisher: a goroutine that owns all index
// network I/O, so store() and Evict() only enqueue. Its members are the
// agents it serves; deltas coalesce per (member, URL) — last write wins, so
// a document cached and evicted between flushes ships as a single removal —
// and a flush ships every dirty member's generation-numbered sub-batch as
// one POST /index/batch, each authenticated by that member's own token.
//
// Reliability model: enqueue blocks when the queue is full (lossless
// backpressure, bounded memory). A failed carrier keeps every pending set
// and generation intact, so the retry is either the normal successor (the
// proxy never saw it) or an idempotent retransmit (it did, the reply was
// lost). A rejected sub-batch — the proxy refused that member's token, so it
// unregistered or was superseded — drops only that member's ledger. Every
// digestEvery-th sub-batch carries a Bloom digest of the member's directory,
// so drift the generations cannot see (a proxy restart) still triggers the
// proxy's /peer/resync pull.
type publisher struct {
	proxyURL  string
	client    *http.Client
	logger    *slog.Logger
	delay     time.Duration
	maxDeltas int
	maxBytes  int64

	ch    chan memberDelta
	reqs  chan request
	quit  chan struct{} // graceful: drain + final flush
	abort chan struct{} // abrupt (Kill): stop without flushing
	done  chan struct{}

	// mu guards closed. Senders hold the read lock across their channel
	// send, so stop()'s write lock cannot be acquired while a send is in
	// flight — once stop holds it, no further sends can race the drain.
	mu     sync.RWMutex
	closed bool

	// Loop-owned state; never touched outside the loop goroutine.
	members     map[*Agent]*ledger
	totalDeltas int
	totalBytes  int64
}

// seqDelta orders deltas by the cache mutation they describe. The sequence
// number is assigned under the agent lock at mutation time and the channel
// send happens after unlock, under Agent.pubOrder, so one agent's deltas
// arrive in seq order; coalescing still keeps the highest seq per URL as a
// second guard.
type seqDelta struct {
	seq uint64
	d   proxy.IndexDelta
}

// memberDelta is one member's delta in the shared ingress queue.
type memberDelta struct {
	a  *Agent
	sd seqDelta
}

// ledger is the publisher's per-member state: the coalesced pending deltas
// and the member's OWN generation counter — sharing a carrier changes the
// transport, not the per-client protocol, so the proxy's gap and digest
// drift detection works per agent.
type ledger struct {
	pending map[string]seqDelta
	bytes   int64
	gen     uint64
	// seen is the highest delta seq absorbed, sinceDigest the sub-batches
	// shipped since the last digest.
	seen        uint64
	sinceDigest int
}

// request is one synchronous ask of the loop on behalf of one member.
type request struct {
	a    *Agent
	kind requestKind
	ack  chan error
}

type requestKind int

const (
	reqFlush requestKind = iota // ship the member's pending deltas now
	reqSync                     // replace them with a Full directory sync
	reqLeave                    // graceful departure: final flush, then forget
	reqDrop                     // abrupt departure: forget
)

// newPublisher starts a publisher posting to proxyURL over client.
func newPublisher(proxyURL string, client *http.Client, logger *slog.Logger, delay time.Duration, maxDeltas int, maxBytes int64) *publisher {
	p := &publisher{
		proxyURL:  proxyURL,
		client:    client,
		logger:    logger,
		delay:     delay,
		maxDeltas: maxDeltas,
		maxBytes:  maxBytes,
		ch:        make(chan memberDelta, 2*maxDeltas),
		reqs:      make(chan request),
		quit:      make(chan struct{}),
		abort:     make(chan struct{}),
		done:      make(chan struct{}),
		members:   make(map[*Agent]*ledger),
	}
	go p.loop()
	return p
}

// enqueue hands one member's delta to the loop. It blocks if the queue is
// full — backpressure instead of loss — and is a no-op after stop. Callers
// must NOT hold a.mu: the loop takes agent locks for digests and full
// syncs, and a blocked send under one would deadlock.
func (p *publisher) enqueue(a *Agent, sd seqDelta) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if !p.closed {
		p.ch <- memberDelta{a: a, sd: sd}
	}
}

// call asks the loop to serve one request for member a and waits for the
// outcome (nil after stop: there is nothing left to ship).
func (p *publisher) call(a *Agent, kind requestKind) error {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return nil
	}
	r := request{a: a, kind: kind, ack: make(chan error, 1)}
	p.reqs <- r
	p.mu.RUnlock()
	return <-r.ack
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
	t := time.NewTicker(p.delay)
	defer t.Stop()
	for {
		select {
		case md := <-p.ch:
			p.absorb(md)
			if p.totalDeltas >= p.maxDeltas || p.totalBytes >= p.maxBytes {
				p.ship(nil)
			}
		case <-t.C:
			if p.totalDeltas > 0 {
				p.ship(nil)
			}
		case r := <-p.reqs:
			r.ack <- p.serve(r)
		case <-p.quit:
			p.ship(nil)
			return
		case <-p.abort:
			return
		}
	}
}

// serve answers one request.
func (p *publisher) serve(r request) error {
	switch r.kind {
	case reqFlush:
		return p.ship(r.a)
	case reqSync:
		return p.fullSync(r.a)
	case reqLeave:
		err := p.ship(r.a)
		p.forget(r.a)
		return err
	default:
		p.drainQueued() // no queued delta may re-create the ledger
		p.forget(r.a)
		return nil
	}
}

// ledgerOf returns member a's ledger, creating it on first use.
func (p *publisher) ledgerOf(a *Agent) *ledger {
	st := p.members[a]
	if st == nil {
		st = &ledger{pending: make(map[string]seqDelta)}
		p.members[a] = st
	}
	return st
}

// absorb folds one delta into its member's pending map: the delta describing
// the newest cache mutation (highest seq) wins, regardless of arrival order.
func (p *publisher) absorb(md memberDelta) {
	st := p.ledgerOf(md.a)
	st.seen = max(st.seen, md.sd.seq)
	url := md.sd.d.URL
	prev, dup := st.pending[url]
	if dup && prev.seq > md.sd.seq {
		return // a newer mutation for this URL already arrived
	}
	if !dup {
		n := int64(len(url)) + deltaOverhead
		st.bytes += n
		p.totalBytes += n
		p.totalDeltas++
	}
	st.pending[url] = md.sd
}

// drainQueued empties the ingress queue into the ledgers without blocking,
// so what ships next reflects every delta produced so far.
func (p *publisher) drainQueued() {
	for {
		select {
		case md := <-p.ch:
			p.absorb(md)
		default:
			return
		}
	}
}

// clearPending empties one ledger's pending set, adjusting the totals.
func (p *publisher) clearPending(st *ledger) {
	p.totalDeltas -= len(st.pending)
	p.totalBytes -= st.bytes
	clear(st.pending)
	st.bytes = 0
}

// forget drops member a's ledger (departure or rejection).
func (p *publisher) forget(a *Agent) {
	if st, ok := p.members[a]; ok {
		p.clearPending(st)
		delete(p.members, a)
	}
}

// ship drains the queue and posts one carrier with the pending sub-batch of
// member only, or of every dirty member when only is nil.
func (p *publisher) ship(only *Agent) error {
	p.drainQueued()
	var members []*Agent
	var batches []proxy.HostBatch
	add := func(a *Agent, st *ledger) {
		if len(st.pending) > 0 {
			members = append(members, a)
			batches = append(batches, p.subBatch(a, st))
		}
	}
	if only == nil {
		for a, st := range p.members {
			add(a, st)
		}
	} else if st := p.members[only]; st != nil {
		add(only, st)
	}
	if len(batches) == 0 {
		return nil
	}
	return p.post(members, batches)
}

// subBatch builds member a's next delta sub-batch. Every digestEvery-th one
// carries a digest of a's directory — but only when the ledger has absorbed
// every delta a's cache has produced: a digest covering a mutation still on
// its way to the queue describes a directory this batch does not carry, and
// the proxy would count a mismatch and pull a resync for nothing. Such a
// moment defers the digest to the next sub-batch.
func (p *publisher) subBatch(a *Agent, st *ledger) proxy.HostBatch {
	b := proxy.IndexBatch{ClientID: a.id, Gen: st.gen + 1, Deltas: make([]proxy.IndexDelta, 0, len(st.pending))}
	for _, sd := range st.pending {
		b.Deltas = append(b.Deltas, sd.d)
	}
	st.sinceDigest++
	if st.sinceDigest >= digestEvery {
		if digest, ok := a.directoryDigest(st.seen); ok {
			b.Digest, st.sinceDigest = digest, 0
		}
	}
	return proxy.HostBatch{IndexBatch: b, Token: a.token}
}

// fullSync replaces member a's pending deltas with a Full sub-batch of its
// whole directory (the /peer/resync answer). The sync takes the next
// generation, which the proxy adopts outright, so the following batch is not
// misread as a gap. If the carrier fails, the snapshot re-queues as pending
// adds at the snapshot's seq, so later per-URL deltas still win — nothing is
// lost, and removals the proxy still believes in are healed by the next
// digest.
func (p *publisher) fullSync(a *Agent) error {
	p.drainQueued()
	st := p.ledgerOf(a)
	a.mu.Lock()
	dir := a.directoryLocked(nowStamp())
	// Deltas for mutations after this point carry a higher seq and must
	// survive being absorbed alongside a re-queued snapshot.
	snapSeq := a.deltaSeq
	a.mu.Unlock()
	full := proxy.IndexBatch{ClientID: a.id, Gen: st.gen + 1, Deltas: dir, Full: true}
	err := p.post([]*Agent{a}, []proxy.HostBatch{{IndexBatch: full, Token: a.token}})
	if _, member := p.members[a]; err != nil && member {
		for _, d := range dir {
			p.absorb(memberDelta{a: a, sd: seqDelta{seq: snapSeq, d: d}})
		}
	}
	return err
}

// post ships one carrier and settles every sub-batch in it: an accepted
// member advances to its batch's generation and clears its pending set; a
// rejected one is forgotten, since the proxy no longer believes in it. A
// failed carrier keeps everything for an idempotent retransmit. Either kind
// of failure counts against every member it touched.
func (p *publisher) post(members []*Agent, batches []proxy.HostBatch) error {
	resp, err := p.send(batches)
	if err != nil {
		for _, a := range members {
			a.addMetric(func(m *Metrics) { m.IndexPublishFailures++ })
		}
		if p.logger != nil {
			p.logger.Warn("index publish failed", "members", len(members), "err", err)
		}
		return err
	}
	rejected := make(map[int]bool, len(resp.Rejected))
	for _, id := range resp.Rejected {
		rejected[id] = true
	}
	for i, a := range members {
		if rejected[a.id] {
			a.addMetric(func(m *Metrics) { m.IndexPublishFailures++ })
			p.forget(a)
			err = fmt.Errorf("browser: proxy rejected client %d's index batch", a.id)
			if p.logger != nil {
				p.logger.Warn("index batch rejected", "client", a.id)
			}
			continue
		}
		st := p.members[a]
		st.gen = batches[i].Gen
		p.clearPending(st)
		full := batches[i].Full
		a.addMetric(func(m *Metrics) {
			if full {
				m.IndexSyncs++
			} else {
				m.IndexBatches++
			}
		})
	}
	return err
}

// send POSTs one carrier to /index/batch and decodes the per-sub-batch
// outcome.
func (p *publisher) send(batches []proxy.HostBatch) (proxy.MultiBatchResponse, error) {
	var out proxy.MultiBatchResponse
	body, _ := json.Marshal(proxy.IndexMultiBatch{Batches: batches})
	req, err := http.NewRequest(http.MethodPost, p.proxyURL+"/index/batch", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return out, err
	}
	defer proxy.DrainClose(resp)
	if resp.StatusCode/100 != 2 {
		return out, fmt.Errorf("browser: index batch status %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// directoryDigest builds the Bloom digest of the agent's full cache
// directory — the base64 MarshalBinary of a filter sized for the resident
// count at 1% FPR, which the proxy rebuilds over its believed directory and
// compares bit-for-bit — provided the cache is still at delta seq; false
// when it has moved past it.
func (a *Agent) directoryDigest(seq uint64) (string, bool) {
	a.mu.Lock()
	if a.deltaSeq != seq {
		a.mu.Unlock()
		return "", false
	}
	keys := a.cache.Keys()
	f, err := bloom.NewFilterForFPR(max(len(keys), 1), 0.01)
	if err != nil {
		a.mu.Unlock()
		return "", false
	}
	for _, k := range keys {
		f.Add(k)
	}
	a.mu.Unlock()
	raw, err := f.MarshalBinary()
	if err != nil {
		return "", false
	}
	return base64.StdEncoding.EncodeToString(raw), true
}
