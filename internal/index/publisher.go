package index

import (
	"fmt"

	"baps/internal/intern"
)

// Mode selects the §2 index-update protocol.
type Mode int

const (
	// Immediate applies every browser-cache change to the proxy's index
	// at once: the proxy adds an item when it sends a document to the
	// browser, and the browser sends an invalidation message on every
	// eviction. The index is always exact.
	Immediate Mode = iota
	// Periodic batches changes at the browser and re-synchronizes the
	// proxy's view only after more than Threshold of the browser cache
	// has changed (the Fan et al. delay-threshold scheme the paper cites;
	// thresholds of 1–10 % cost only a small hit-ratio degradation).
	// Between flushes the index is stale: it can claim documents the
	// browser already evicted (false hits) and miss documents the
	// browser holds (lost sharing opportunities).
	Periodic
	// Batched coalesces changes like Periodic (same delay-threshold
	// trigger) but ships only the net per-document deltas instead of
	// re-sending the full directory — the §5 message-volume remedy. Index
	// staleness between flushes is identical to Periodic; only the bytes
	// and entries on the wire shrink.
	Batched
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Immediate:
		return "immediate"
	case Periodic:
		return "periodic"
	case Batched:
		return "batched"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode resolves a mode name as printed by String.
func ParseMode(s string) (Mode, error) {
	for _, m := range []Mode{Immediate, Periodic, Batched} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("index: unknown mode %q", s)
}

// Publishers mediates a population of browser caches' updates to the shared
// Index under one protocol: the browser of client i (0 ≤ i < n) publishes as
// client i. The index, mode and threshold are held once for the population;
// each browser keeps only its counters and, under a batching mode, the
// pending maps it makes on its first change. Like the Index it writes to, it
// is not safe for concurrent use; the simulator is single-threaded per run.
type Publishers struct {
	idx       *Index
	mode      Mode
	threshold float64 // fraction of resident docs changed before flush
	ps        []publisher
}

// publisher is one browser's protocol state (32 B).
type publisher struct {
	pending *pendingChanges // batching modes: made on the first change
	changes int32
	// resident is the browser cache's document count as last reported by
	// OnInsert/OnEvict, so an externally triggered Flush can account a
	// Periodic full re-send without a fresh resident figure.
	resident int32
	// §5 message-volume accounting: msgs counts protocol messages on the
	// (simulated) wire, entriesShipped the index entries they carried —
	// one entry per Immediate op, the full directory per Periodic flush,
	// only the net deltas per Batched flush. A batching mode sends one
	// message per flush, so msgs also counts its flushes.
	msgs           int64
	entriesShipped int64
}

// pendingChanges is a batching publisher's unflushed net changes.
type pendingChanges struct {
	add    map[intern.ID]Entry
	remove map[intern.ID]struct{}
}

// NewPublishers creates the publishers of clients 0 … n-1 against idx. The
// population costs one allocation; a batching publisher makes its pending
// maps on its first change. threshold is the changed fraction that triggers
// a periodic or batched flush (ignored for Immediate); it must be in (0, 1]
// for those modes.
func NewPublishers(idx *Index, n int, mode Mode, threshold float64) (*Publishers, error) {
	if idx == nil {
		return nil, fmt.Errorf("index: nil Index")
	}
	if (mode == Periodic || mode == Batched) && (threshold <= 0 || threshold > 1) {
		return nil, fmt.Errorf("index: %s threshold %g out of (0,1]", mode, threshold)
	}
	return &Publishers{idx: idx, mode: mode, threshold: threshold, ps: make([]publisher, n)}, nil
}

// batch returns p's pending changes, making them on its first change.
func (p *publisher) batch() *pendingChanges {
	if p.pending == nil {
		p.pending = &pendingChanges{add: make(map[intern.ID]Entry), remove: make(map[intern.ID]struct{})}
	}
	return p.pending
}

// OnInsert records that client's browser cached a document. resident is the
// browser cache's current document count, used for the periodic threshold.
func (s *Publishers) OnInsert(client int, e Entry, resident int) {
	p := &s.ps[client]
	e.Client = client
	p.resident = int32(resident)
	if s.mode == Immediate {
		s.idx.Add(e)
		p.msgs++
		p.entriesShipped++
		return
	}
	b := p.batch()
	delete(b.remove, e.Doc)
	b.add[e.Doc] = e
	p.changes++
	s.maybeFlush(client, resident)
}

// OnEvict records that client's browser evicted (or invalidated) a document.
func (s *Publishers) OnEvict(client int, doc intern.ID, resident int) {
	p := &s.ps[client]
	p.resident = int32(resident)
	if s.mode == Immediate {
		s.idx.Remove(client, doc)
		p.msgs++
		p.entriesShipped++
		return
	}
	b := p.batch()
	delete(b.add, doc)
	b.remove[doc] = struct{}{}
	p.changes++
	s.maybeFlush(client, resident)
}

func (s *Publishers) maybeFlush(client, resident int) {
	if resident < 1 {
		resident = 1
	}
	if float64(s.ps[client].changes) >= s.threshold*float64(resident) {
		s.Flush(client)
	}
}

// Flush applies all of client's pending changes to the index immediately
// (the periodic re-sync message; also sent "when the path between the
// browser and the proxy is free").
func (s *Publishers) Flush(client int) {
	p := &s.ps[client]
	if s.mode == Immediate || p.changes == 0 {
		return
	}
	b := p.pending
	for doc := range b.remove {
		s.idx.Remove(client, doc)
	}
	for _, e := range b.add {
		s.idx.Add(e)
	}
	p.msgs++
	if s.mode == Batched {
		// One batch message carrying only the net deltas.
		p.entriesShipped += int64(len(b.add) + len(b.remove))
	} else {
		// Periodic re-sends the whole resident directory.
		p.entriesShipped += int64(max(p.resident, 1))
	}
	clear(b.add)
	clear(b.remove)
	p.changes = 0
}

// Reset discards every publisher's pending changes and counters and adopts
// a new periodic threshold, re-arming the population for a fresh replay
// over the same index.
func (s *Publishers) Reset(threshold float64) {
	for i := range s.ps {
		if b := s.ps[i].pending; b != nil {
			clear(b.add)
			clear(b.remove)
		}
		s.ps[i] = publisher{pending: s.ps[i].pending}
	}
	s.threshold = threshold
}

// Pending reports client's number of unflushed changes.
func (s *Publishers) Pending(client int) int { return int(s.ps[client].changes) }

// Flushes reports how many batched flushes client has made.
func (s *Publishers) Flushes(client int) int {
	if s.mode == Immediate {
		return 0
	}
	return int(s.ps[client].msgs)
}

// Messages reports the number of index-protocol messages client's publisher
// has put on the (simulated) wire: one per Immediate op, one per Periodic
// or Batched flush.
func (s *Publishers) Messages(client int) int64 { return s.ps[client].msgs }

// EntriesShipped reports the total index entries those messages carried —
// the §5 overhead figure that separates the three protocols.
func (s *Publishers) EntriesShipped(client int) int64 { return s.ps[client].entriesShipped }

// Mode reports the configured protocol.
func (s *Publishers) Mode() Mode { return s.mode }
