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

// Publisher mediates one browser cache's updates to the shared Index under
// the configured protocol. Like the Index it writes to, it is not safe for
// concurrent use; the simulator is single-threaded per run.
type Publisher struct {
	idx       *Index
	client    int
	mode      Mode
	threshold float64 // fraction of resident docs changed before flush

	pendingAdd    map[intern.ID]Entry
	pendingRemove map[intern.ID]struct{}
	changes       int
	flushes       int

	// resident is the browser cache's document count as last reported by
	// OnInsert/OnEvict, so an externally triggered Flush can account a
	// Periodic full re-send without a fresh resident figure.
	resident int
	// §5 message-volume accounting: msgs counts protocol messages on the
	// (simulated) wire, entriesShipped the index entries they carried —
	// one entry per Immediate op, the full directory per Periodic flush,
	// only the net deltas per Batched flush.
	msgs           int64
	entriesShipped int64
}

// NewPublisher creates a publisher for client against idx. threshold is the
// changed fraction that triggers a periodic or batched flush (ignored for
// Immediate); it must be in (0, 1] for those modes.
func NewPublisher(idx *Index, client int, mode Mode, threshold float64) (*Publisher, error) {
	ps, err := NewPublishers(idx, 1, mode, threshold)
	if err != nil {
		return nil, err
	}
	ps[0].client = client
	return &ps[0], nil
}

// NewPublishers creates the publishers of clients 0 … n-1 against idx, held
// by value in one slice: a population of browsers costs one allocation, and
// a batching publisher makes its pending maps on its first change.
func NewPublishers(idx *Index, n int, mode Mode, threshold float64) ([]Publisher, error) {
	if idx == nil {
		return nil, fmt.Errorf("index: nil Index")
	}
	if (mode == Periodic || mode == Batched) && (threshold <= 0 || threshold > 1) {
		return nil, fmt.Errorf("index: %s threshold %g out of (0,1]", mode, threshold)
	}
	ps := make([]Publisher, n)
	for i := range ps {
		ps[i] = Publisher{idx: idx, client: i, mode: mode, threshold: threshold}
	}
	return ps, nil
}

// pending readies the batching maps, made on a publisher's first change.
func (p *Publisher) pending() {
	if p.pendingAdd == nil {
		p.pendingAdd = make(map[intern.ID]Entry)
		p.pendingRemove = make(map[intern.ID]struct{})
	}
}

// OnInsert records that the browser cached a document. resident is the
// browser cache's current document count, used for the periodic threshold.
func (p *Publisher) OnInsert(e Entry, resident int) {
	e.Client = p.client
	p.resident = resident
	if p.mode == Immediate {
		p.idx.Add(e)
		p.msgs++
		p.entriesShipped++
		return
	}
	p.pending()
	delete(p.pendingRemove, e.Doc)
	p.pendingAdd[e.Doc] = e
	p.changes++
	p.maybeFlush(resident)
}

// OnEvict records that the browser evicted (or invalidated) a document.
func (p *Publisher) OnEvict(doc intern.ID, resident int) {
	p.resident = resident
	if p.mode == Immediate {
		p.idx.Remove(p.client, doc)
		p.msgs++
		p.entriesShipped++
		return
	}
	p.pending()
	delete(p.pendingAdd, doc)
	p.pendingRemove[doc] = struct{}{}
	p.changes++
	p.maybeFlush(resident)
}

func (p *Publisher) maybeFlush(resident int) {
	if resident < 1 {
		resident = 1
	}
	if float64(p.changes) >= p.threshold*float64(resident) {
		p.Flush()
	}
}

// Flush applies all pending changes to the index immediately (the periodic
// re-sync message; also sent "when the path between the browser and the
// proxy is free").
func (p *Publisher) Flush() {
	if p.mode == Immediate || p.changes == 0 {
		return
	}
	for doc := range p.pendingRemove {
		p.idx.Remove(p.client, doc)
	}
	for _, e := range p.pendingAdd {
		p.idx.Add(e)
	}
	p.msgs++
	if p.mode == Batched {
		// One batch message carrying only the net deltas.
		p.entriesShipped += int64(len(p.pendingAdd) + len(p.pendingRemove))
	} else {
		// Periodic re-sends the whole resident directory.
		r := p.resident
		if r < 1 {
			r = 1
		}
		p.entriesShipped += int64(r)
	}
	clear(p.pendingAdd)
	clear(p.pendingRemove)
	p.changes = 0
	p.flushes++
}

// Reset discards pending changes and counters and adopts a new periodic
// threshold, re-arming the publisher for a fresh replay over the same index.
func (p *Publisher) Reset(threshold float64) {
	clear(p.pendingAdd)
	clear(p.pendingRemove)
	p.changes = 0
	p.flushes = 0
	p.resident = 0
	p.msgs = 0
	p.entriesShipped = 0
	p.threshold = threshold
}

// Pending reports the number of unflushed changes.
func (p *Publisher) Pending() int { return p.changes }

// Flushes reports how many batched flushes have occurred.
func (p *Publisher) Flushes() int { return p.flushes }

// Messages reports the number of index-protocol messages the publisher has
// put on the (simulated) wire: one per Immediate op, one per Periodic or
// Batched flush.
func (p *Publisher) Messages() int64 { return p.msgs }

// EntriesShipped reports the total index entries those messages carried —
// the §5 overhead figure that separates the three protocols.
func (p *Publisher) EntriesShipped() int64 { return p.entriesShipped }

// Mode reports the configured protocol.
func (p *Publisher) Mode() Mode { return p.mode }
