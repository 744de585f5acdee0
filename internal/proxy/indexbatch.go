package proxy

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"baps/internal/bloom"
	"baps/internal/index"
	"baps/internal/intern"
)

// batchState is the proxy-side bookkeeping of the batched index protocol:
// the last applied generation per client and the rate limiter for
// /peer/resync pulls, so a burst of gap/digest anomalies from one client
// collapses into a single recovery pull.
type batchState struct {
	mu         sync.Mutex
	gen        map[int]uint64
	lastResync map[int]time.Time
	// scratch pools one digest-comparison filter per client: senders keep a
	// stable filter geometry across batches, so the same bit array is
	// Reset and refilled instead of reallocated on every digest-bearing
	// batch. Checkout semantics (take, then stash back) keep two
	// concurrent batches from one client off the same buffer.
	scratch map[int]*bloom.Filter
}

func newBatchState() *batchState {
	return &batchState{
		gen:        make(map[int]uint64),
		lastResync: make(map[int]time.Time),
		scratch:    make(map[int]*bloom.Filter),
	}
}

// checkoutScratch hands out the client's pooled comparison filter, reset and
// ready, when its geometry matches; otherwise it allocates fresh. The caller
// must stash the filter back when done.
func (b *batchState) checkoutScratch(client int, bits uint64, k int) (*bloom.Filter, error) {
	b.mu.Lock()
	f := b.scratch[client]
	delete(b.scratch, client)
	b.mu.Unlock()
	if f != nil && f.Bits() == bits && f.K() == k {
		f.Reset()
		return f, nil
	}
	return bloom.NewFilter(bits, k)
}

// stashScratch returns a comparison filter to the client's pool slot.
func (b *batchState) stashScratch(client int, f *bloom.Filter) {
	b.mu.Lock()
	b.scratch[client] = f
	b.mu.Unlock()
}

// observe applies the generation rules for a received batch generation and
// reports whether a gap was detected. The new generation is adopted either
// way: after a gap the recovery pull re-fetches the full directory, so the
// proxy should track the sender's numbering from here on.
func (b *batchState) observe(client int, gen uint64) (gap bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	last := b.gen[client]
	gap = gen != last+1 && gen != last
	b.gen[client] = gen
	return gap
}

// seed re-seats a client's generation (after a Full batch).
func (b *batchState) seed(client int, gen uint64) {
	b.mu.Lock()
	b.gen[client] = gen
	b.mu.Unlock()
}

// snapshotGens copies the per-client generation table (state persistence).
func (b *batchState) snapshotGens() map[int]uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[int]uint64, len(b.gen))
	for id, gen := range b.gen {
		out[id] = gen
	}
	return out
}

// forget drops a departed client's state.
func (b *batchState) forget(client int) {
	b.mu.Lock()
	delete(b.gen, client)
	delete(b.lastResync, client)
	delete(b.scratch, client)
	b.mu.Unlock()
}

// shouldResync rate-limits recovery pulls to one per client per window.
func (b *batchState) shouldResync(client int, window time.Duration) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	if last, ok := b.lastResync[client]; ok && now.Sub(last) < window {
		return false
	}
	b.lastResync[client] = now
	return true
}

// resyncRateWindow bounds how often the proxy pulls a full re-sync from one
// client in response to batch anomalies.
const resyncRateWindow = 500 * time.Millisecond

// applyIndexBatch is the only wire path into the browser index: one
// authenticated sub-batch of POST /index/batch. A delta batch is judged
// against the client's generation and applied shard-grouped, one lock
// acquisition per shard; a generation gap or Bloom-digest mismatch schedules
// an asynchronous /peer/resync pull — the §2 recovery path — instead of
// trusting a drifted view. A Full batch replaces the client's directory and
// re-seats its generation.
func (s *Server) applyIndexBatch(id int, batch IndexBatch) {
	if batch.Full {
		entries := make([]index.Entry, 0, len(batch.Deltas))
		for _, d := range batch.Deltas {
			if d.URL == "" || d.Remove {
				continue // a directory lists what is resident, nothing else
			}
			entries = append(entries, index.Entry{
				Client: id, Doc: s.syms.Intern(d.URL), Size: d.Size, Version: d.Version, Stamp: d.Stamp,
			})
		}
		s.idx.ResyncClient(id, entries)
		s.batches.seed(id, batch.Gen)
		s.fedNote(len(entries) + 1)
		s.m.idxResync.Inc()
		return
	}
	gap := s.batches.observe(id, batch.Gen)

	deltas := make([]index.Delta, 0, len(batch.Deltas))
	for _, d := range batch.Deltas {
		if d.URL == "" {
			continue
		}
		if d.Remove {
			// A URL the proxy never interned has no entries to remove;
			// skipping keeps bogus invalidations from growing the table.
			doc, known := s.syms.Lookup(d.URL)
			if !known {
				continue
			}
			deltas = append(deltas, index.Delta{Entry: index.Entry{Doc: doc}, Remove: true})
			continue
		}
		deltas = append(deltas, index.Delta{Entry: index.Entry{
			Doc:     s.syms.Intern(d.URL),
			Size:    d.Size,
			Version: d.Version,
			Stamp:   d.Stamp,
		}})
	}
	s.idx.ApplyBatch(id, deltas)
	s.m.idxBatch.Inc()
	s.m.idxBatchDeltas.Add(int64(len(deltas)))
	s.fedNote(len(deltas))

	drift := gap
	if gap {
		s.m.idxGenGaps.Inc()
		if s.logger != nil {
			s.logger.Warn("index batch generation gap", "client", id, "gen", batch.Gen)
		}
	} else if batch.Digest != "" {
		if mismatch := s.digestMismatch(id, batch.Digest); mismatch {
			drift = true
			s.m.idxDigestMismatch.Inc()
			if s.logger != nil {
				s.logger.Warn("index digest mismatch", "client", id, "gen", batch.Gen)
			}
		}
	}
	if drift && s.batches.shouldResync(id, resyncRateWindow) {
		go s.pullResync(id)
	}
}

// handleIndexBatch applies one publisher's carrier (POST /index/batch): one
// HTTP request bearing one generation-numbered sub-batch per agent the
// publisher serves. There is no carrier-level identity — each sub-batch
// authenticates with its own agent's token — so a publisher can never speak
// for an agent the proxy did not register. Sub-batches that fail
// authentication (the agent unregistered or was superseded mid-flight) are
// reported back by client id in Rejected; valid siblings in the same
// carrier still apply.
func (s *Server) handleIndexBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "proxy: POST only", http.StatusMethodNotAllowed)
		return
	}
	var multi IndexMultiBatch
	if err := json.NewDecoder(io.LimitReader(r.Body, 32<<20)).Decode(&multi); err != nil {
		http.Error(w, "proxy: bad batch body", http.StatusBadRequest)
		return
	}
	var resp MultiBatchResponse
	for _, hb := range multi.Batches {
		if hb.Gen == 0 || !s.authToken(hb.Token, hb.ClientID) {
			resp.Rejected = append(resp.Rejected, hb.ClientID)
			continue
		}
		s.applyIndexBatch(hb.ClientID, hb.IndexBatch)
		resp.Accepted++
	}
	s.m.idxCarriers.Inc()
	writeJSON(w, resp)
}

// authToken validates one (token, client id) pair — the header-free variant
// of authClient for carrier sub-batches.
func (s *Server) authToken(token string, id int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	owner, ok := s.tokens[token]
	return ok && owner == id
}

// digestMismatch rebuilds the sender's Bloom filter geometry over the
// proxy's believed directory for the client and compares bit-for-bit.
// Filters over equal URL sets with equal (m, k) are identical, so any
// difference proves the two directories have drifted. (Two *different* sets
// can collide into the same bits at the filter's false-positive rate — such
// drift escapes one digest but is caught by a later one as the directories
// keep changing.)
func (s *Server) digestMismatch(client int, digestB64 string) bool {
	raw, err := base64.StdEncoding.DecodeString(digestB64)
	if err != nil {
		return true // unparseable digest: treat as drift, resync restores truth
	}
	theirs, err := bloom.UnmarshalFilter(raw)
	if err != nil {
		return true
	}
	ours, err := s.batches.checkoutScratch(client, theirs.Bits(), theirs.K())
	if err != nil {
		return true
	}
	defer s.batches.stashScratch(client, ours)
	s.idx.ForEachClientDoc(client, func(doc intern.ID) {
		ours.Add(s.syms.String(doc))
	})
	return !ours.Equal(theirs)
}

// pullResync asks one browser for a full directory re-sync (the same pull
// ResyncAll issues to every peer after a proxy restart).
func (s *Server) pullResync(client int) {
	s.mu.Lock()
	p, ok := s.peers[client]
	s.mu.Unlock()
	if !ok {
		return
	}
	s.m.idxResyncPulls.Inc()
	if err := Post(context.Background(), s.peerClient, p.baseURL+"/peer/resync", nil, HeaderToken, p.token); err != nil && s.logger != nil {
		s.logger.Warn("resync pull failed", "client", client, "err", err)
	}
}
