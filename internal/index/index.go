// Package index implements the browser index file at the heart of the
// browsers-aware proxy server (paper §2): a directory, kept at the proxy, of
// every document cached in every connected client's browser cache.
//
// Each index item records the client machine id, the interned document ID
// (the live system additionally carries a 16-byte MD5 signature; URL ⇄ ID
// mapping lives in baps/internal/intern), the document size, and a
// version/time stamp. The package provides:
//
//   - Index: the exact directory, holders kept as compact client-sorted
//     slices in a dense by-document table, with pluggable holder-selection
//     strategies. Single-goroutine, like core.System: it takes no locks;
//   - Sharded: the concurrent directory the live proxy uses — N Index
//     shards selected by document ID, each behind its own lock, so
//     concurrent request goroutines do not serialize on one directory lock;
//   - Publisher: the two update protocols of §2 — immediate invalidation
//     (add on proxy→browser send, invalidation message on eviction) and
//     periodic batched re-synchronization (flush when more than a threshold
//     fraction of the browser cache changed, following the delay-threshold
//     study of Fan et al. the paper cites in §5);
//   - BloomIndex: the Summary-Cache-style compressed alternative with one
//     counting Bloom filter per client (§5's space-reduction discussion);
//   - space estimators for the §5 index-size analysis.
package index

import (
	"fmt"
	"sort"
	"sync"

	"baps/internal/bloom"
	"baps/internal/intern"
)

// Entry is one browser-index item.
type Entry struct {
	// Client is the holder's client id.
	Client int
	// Doc is the interned document ID.
	Doc intern.ID
	// Size is the cached body size in bytes.
	Size int64
	// Version is the document generation held by the client.
	Version int64
	// Stamp is the (simulated or wall) time the entry was recorded, in
	// seconds; it plays the paper's "time stamp of the file" role and
	// drives the most-recent holder-selection strategy.
	Stamp float64
	// Expire is the absolute time (same clock as Stamp) at which the
	// document's TTL — "provided by the data source", §2 — runs out.
	// Zero means no expiry. Expired entries are skipped by OrderedAt
	// and purged by PruneExpired.
	Expire float64
}

// expired reports whether the entry's TTL ran out at time now.
func (e Entry) expired(now float64) bool {
	return e.Expire != 0 && now >= e.Expire
}

// Strategy selects which holder serves a remote-browser hit when several
// clients cache the document.
type Strategy int

const (
	// SelectMostRecent picks the holder with the newest Stamp (most
	// likely still resident and fresh); ties break to the lowest client.
	SelectMostRecent Strategy = iota
	// SelectLeastLoaded picks the holder that has served the fewest
	// peer transfers, spreading upload load across browsers.
	SelectLeastLoaded
	// SelectFirst picks the lowest client id (deterministic, cheapest).
	SelectFirst
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case SelectMostRecent:
		return "most-recent"
	case SelectLeastLoaded:
		return "least-loaded"
	case SelectFirst:
		return "first"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Index is the exact browser directory. Holders of each document are kept in
// a compact slice sorted by client id, indexed by the dense document ID — no
// per-lookup string hashing and no per-entry heap allocation. An Index is not
// safe for concurrent use: the simulator drives one per goroutine, like
// core.System, and the live proxy uses Sharded, which puts each of its Index
// shards behind a lock of its own.
type Index struct {
	strategy Strategy
	ct       *clientTable // shared by all shards of a Sharded

	// byDoc[doc] lists the holders of doc, sorted by client id. Emptied
	// slices keep their capacity for reuse.
	byDoc   [][]Entry
	held    []int // held[client] counts client's entries in this index
	entries int   // total entries in this index (shard)
	docs    int   // documents with at least one holder
}

// New creates an empty index with the given holder-selection strategy.
func New(strategy Strategy) *Index {
	return &Index{strategy: strategy, ct: newClientTable()}
}

// Grow pre-sizes the document table for IDs in [0, numDocs), sparing the
// hot path incremental growth. The simulator calls it with the trace's
// document count.
func (x *Index) Grow(numDocs int) {
	if numDocs > len(x.byDoc) {
		grown := make([][]Entry, numDocs)
		copy(grown, x.byDoc)
		x.byDoc = grown
	}
}

func (x *Index) ensureDoc(doc intern.ID) {
	if int(doc) < len(x.byDoc) {
		return
	}
	if int(doc) < cap(x.byDoc) {
		x.byDoc = x.byDoc[:int(doc)+1]
		return
	}
	grown := make([][]Entry, int(doc)+1, max(2*cap(x.byDoc), int(doc)+1))
	copy(grown, x.byDoc)
	x.byDoc = grown
}

// addHeld adjusts client's entry count by delta.
func (x *Index) addHeld(client, delta int) {
	if client >= len(x.held) {
		x.held = append(x.held, make([]int, client+1-len(x.held))...)
	}
	x.held[client] += delta
}

// heldBy reports how many entries client has in this index.
func (x *Index) heldBy(client int) int {
	if client < 0 || client >= len(x.held) {
		return 0
	}
	return x.held[client]
}

// holderPos returns the position of client within the sorted holder list,
// and whether it is present.
func holderPos(hs []Entry, client int) (int, bool) {
	lo, hi := 0, len(hs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if hs[mid].Client < client {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(hs) && hs[lo].Client == client
}

// Add records (or refreshes) an entry.
func (x *Index) Add(e Entry) {
	x.ensureDoc(e.Doc)
	hs := x.byDoc[e.Doc]
	pos, found := holderPos(hs, e.Client)
	if found {
		hs[pos] = e
		return
	}
	if len(hs) == 0 {
		x.docs++
	}
	hs = append(hs, Entry{})
	copy(hs[pos+1:], hs[pos:])
	hs[pos] = e
	x.byDoc[e.Doc] = hs
	x.entries++
	x.addHeld(e.Client, 1)
}

// Remove deletes client's entry for doc (the §2 invalidation message),
// reporting whether it existed.
func (x *Index) Remove(client int, doc intern.ID) bool {
	if doc < 0 || int(doc) >= len(x.byDoc) {
		return false
	}
	hs := x.byDoc[doc]
	pos, found := holderPos(hs, client)
	if !found {
		return false
	}
	copy(hs[pos:], hs[pos+1:])
	hs[len(hs)-1] = Entry{}
	x.byDoc[doc] = hs[:len(hs)-1]
	if len(hs) == 1 {
		x.docs--
	}
	x.entries--
	x.addHeld(client, -1)
	return true
}

// Lookup returns all recorded holders of doc, sorted by client id. The
// returned slice is a copy.
func (x *Index) Lookup(doc intern.ID) []Entry {
	if doc < 0 || int(doc) >= len(x.byDoc) {
		return nil
	}
	return append([]Entry(nil), x.byDoc[doc]...)
}

// Select picks a holder for doc other than requester, per the index's
// strategy, and accounts one served transfer to it. ok is false when no
// other client holds the document.
func (x *Index) Select(doc intern.ID, requester int) (Entry, bool) {
	var best Entry
	found := false
	if doc >= 0 && int(doc) < len(x.byDoc) {
		for _, e := range x.byDoc[doc] {
			if e.Client == requester || x.ct.quarantined(e.Client) {
				continue
			}
			if !found || x.better(e, best) {
				best = e
				found = true
			}
		}
	}
	if found {
		x.ct.accountServe(best.Client)
	}
	return best, found
}

// better reports whether a should be preferred over b under the strategy.
func (x *Index) better(a, b Entry) bool {
	switch x.strategy {
	case SelectMostRecent:
		if a.Stamp != b.Stamp {
			return a.Stamp > b.Stamp
		}
		return a.Client < b.Client
	case SelectLeastLoaded:
		la, lb := x.ct.served(a.Client), x.ct.served(b.Client)
		if la != lb {
			return la < lb
		}
		return a.Client < b.Client
	default: // SelectFirst
		return a.Client < b.Client
	}
}

// Ordered returns all holders of doc except requester, sorted by the
// index's strategy preference (best candidate first). Unlike Select it does
// not account a served transfer; callers that contact a candidate confirm
// with AccountServe. This supports the stale-entry retry loop: under the
// periodic update protocol an index entry may name a browser that already
// evicted the document, and the proxy then tries the next candidate.
func (x *Index) Ordered(doc intern.ID, requester int) []Entry {
	return x.OrderedAt(doc, requester, 0)
}

// OrderedAt is Ordered with TTL filtering: entries whose Expire lies at or
// before now are omitted (now == 0 disables filtering, matching Ordered).
// Quarantined clients' entries are omitted; OrderedQuarantined lists them.
func (x *Index) OrderedAt(doc intern.ID, requester int, now float64) []Entry {
	return x.appendOrdered(nil, doc, requester, now, false)
}

// AppendOrdered is the allocation-free OrderedAt: candidates are appended to
// buf (normally a reused scratch slice with spare capacity) and the extended
// slice is returned. The simulator's remote-lookup path calls this once per
// proxy miss.
func (x *Index) AppendOrdered(buf []Entry, doc intern.ID, requester int, now float64) []Entry {
	return x.appendOrdered(buf, doc, requester, now, false)
}

// HasHolder reports whether any client outside quarantine holds doc — the
// allocation-free len(Ordered(doc, -1)) > 0.
func (x *Index) HasHolder(doc intern.ID) bool {
	if doc < 0 || int(doc) >= len(x.byDoc) {
		return false
	}
	for _, e := range x.byDoc[doc] {
		if !x.ct.quarantined(e.Client) {
			return true
		}
	}
	return false
}

// OrderedQuarantined returns the quarantined holders of doc (excluding
// requester), sorted by strategy preference. The proxy uses it to pick
// half-open breaker probes: a quarantined peer is skipped by OrderedAt but
// may be probed once its breaker cooldown elapses.
func (x *Index) OrderedQuarantined(doc intern.ID, requester int) []Entry {
	return x.appendOrdered(nil, doc, requester, 0, true)
}

func (x *Index) appendOrdered(buf []Entry, doc intern.ID, requester int, now float64, quarantined bool) []Entry {
	start := len(buf)
	if doc >= 0 && int(doc) < len(x.byDoc) {
		for _, e := range x.byDoc[doc] {
			if e.Client == requester || x.ct.quarantined(e.Client) != quarantined {
				continue
			}
			if now != 0 && e.expired(now) {
				continue
			}
			buf = append(buf, e)
		}
	}
	// Insertion sort by strategy preference: holder lists are short, the
	// input is already client-sorted (better's final tie-break), and
	// unlike sort.Slice this allocates nothing.
	out := buf[start:]
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && x.better(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return buf
}

// Quarantine shelves every entry of client in one step: the entries stay
// recorded (and are restored wholesale by Unquarantine) but are invisible to
// holder selection. It returns the number of entries shelved. This replaces
// the one-URL-at-a-time Remove death spiral when a peer's circuit breaker
// trips.
func (x *Index) Quarantine(client int) int {
	x.ct.setQuarantined(client, true)
	return x.heldBy(client)
}

// Unquarantine re-admits client's entries in one step, returning how many
// became visible again.
func (x *Index) Unquarantine(client int) int {
	x.ct.setQuarantined(client, false)
	return x.heldBy(client)
}

// Quarantined reports whether client is currently quarantined.
func (x *Index) Quarantined(client int) bool {
	return x.ct.quarantined(client)
}

// QuarantinedEntries reports the total number of shelved entries across all
// quarantined clients (a /stats gauge).
func (x *Index) QuarantinedEntries() int {
	n := 0
	for c, held := range x.held {
		if held > 0 && x.ct.quarantined(c) {
			n += held
		}
	}
	return n
}

// PruneExpired removes every entry whose TTL ran out at time now, returning
// the number removed. The proxy runs this as periodic housekeeping.
func (x *Index) PruneExpired(now float64) int {
	n := 0
	for doc := range x.byDoc {
		hs := x.byDoc[doc]
		kept := hs[:0]
		for _, e := range hs {
			if e.expired(now) {
				x.addHeld(e.Client, -1)
				n++
				continue
			}
			kept = append(kept, e)
		}
		if len(kept) < len(hs) {
			for i := len(kept); i < len(hs); i++ {
				hs[i] = Entry{}
			}
			x.byDoc[doc] = kept
			x.entries -= len(hs) - len(kept)
			if len(kept) == 0 {
				x.docs--
			}
		}
	}
	return n
}

// AccountServe records that client served one peer transfer (used by the
// least-loaded strategy).
func (x *Index) AccountServe(client int) {
	x.ct.accountServe(client)
}

// Served reports how many peer transfers client has been selected for.
func (x *Index) Served(client int) int64 {
	return x.ct.served(client)
}

// Has reports whether client is recorded as holding doc.
func (x *Index) Has(client int, doc intern.ID) bool {
	_, ok := x.Get(client, doc)
	return ok
}

// Get returns client's entry for doc.
func (x *Index) Get(client int, doc intern.ID) (Entry, bool) {
	if doc < 0 || int(doc) >= len(x.byDoc) {
		return Entry{}, false
	}
	hs := x.byDoc[doc]
	pos, found := holderPos(hs, client)
	if !found {
		return Entry{}, false
	}
	return hs[pos], true
}

// ClientDocs returns a copy of client's directory, sorted by document ID.
func (x *Index) ClientDocs(client int) []Entry {
	var out []Entry
	for doc := range x.byDoc {
		if pos, found := holderPos(x.byDoc[doc], client); found {
			out = append(out, x.byDoc[doc][pos])
		}
	}
	return out
}

// ForEachClientDoc calls fn for every document client currently holds; fn
// must not call back into the index. Allocation-free, unlike ClientDocs.
func (x *Index) ForEachClientDoc(client int, fn func(doc intern.ID)) {
	for doc := range x.byDoc {
		if _, found := holderPos(x.byDoc[doc], client); found {
			fn(intern.ID(doc))
		}
	}
}

// dropEntries removes every entry of client, leaving served/quarantine state
// untouched. Returns the number of entries removed.
func (x *Index) dropEntries(client int) int {
	n := 0
	for doc := range x.byDoc {
		if x.Remove(client, intern.ID(doc)) {
			n++
		}
	}
	return n
}

// DropClient removes every entry for a departed client, returning how many
// entries were removed.
func (x *Index) DropClient(client int) int {
	n := x.dropEntries(client)
	x.ct.drop(client)
	return n
}

// ResyncClient replaces client's directory with entries (the §2 periodic
// full update).
func (x *Index) ResyncClient(client int, entries []Entry) {
	x.dropEntries(client)
	for _, e := range entries {
		e.Client = client
		x.Add(e)
	}
}

// Len reports the total number of entries.
func (x *Index) Len() int { return x.entries }

// ForEachDoc calls fn for every document with at least one recorded holder;
// fn must not call back into the index. The federation layer uses it to
// build Bloom digests of the aggregate directory.
func (x *Index) ForEachDoc(fn func(doc intern.ID)) {
	for doc, hs := range x.byDoc {
		if len(hs) > 0 {
			fn(intern.ID(doc))
		}
	}
}

// URLCount reports the number of distinct documents currently indexed.
func (x *Index) URLCount() int { return x.docs }

// Reset empties the index in place, retaining the document table and holder
// slice capacity, so sweep workers can replay many configurations without
// re-growing. Client state (served counters, quarantine flags) resets too.
func (x *Index) Reset() {
	for doc := range x.byDoc {
		hs := x.byDoc[doc]
		clear(hs)
		x.byDoc[doc] = hs[:0]
	}
	clear(x.held)
	x.entries = 0
	x.docs = 0
	x.ct.reset()
}

// SpaceEstimate models the §5 storage analysis for an exact index: each
// entry costs an MD5 URL signature (16 bytes) plus bookkeeping (client id,
// size, stamp ≈ 16 bytes more). The paper's example — 100 clients × 1 K
// pages — lands at a few megabytes.
func SpaceEstimate(entries int) int64 {
	const perEntry = 16 /* MD5 */ + 16 /* client, size, stamp */
	return int64(entries) * perEntry
}

// BloomSpaceEstimate models the compressed alternative: one counting Bloom
// filter per client sized at bitsPerDoc counters per cached document (Summary
// Cache recommends ≈16 bits/doc at 4-bit counters; with our 8-bit counters
// the same load factor costs 2 bytes per bit position ÷ 8 … reported here
// simply as counters × 1 byte).
func BloomSpaceEstimate(clients, docsPerClient, countersPerDoc int) int64 {
	return int64(clients) * int64(docsPerClient) * int64(countersPerDoc)
}

// BloomIndex is the compressed per-client index: membership is approximate
// (false positives possible, false negatives impossible for synced content).
// It implements the same Add/Remove/Candidates surface the simulator's
// ablation uses to price wasted peer probes against index-space savings.
type BloomIndex struct {
	mu       sync.RWMutex
	filters  map[int]*bloom.Counting
	counters uint64
	k        int
}

// NewBloomIndex creates a Bloom index whose per-client filters have
// countersPerClient counters and k hash functions.
func NewBloomIndex(countersPerClient uint64, k int) (*BloomIndex, error) {
	if countersPerClient == 0 || k <= 0 {
		return nil, fmt.Errorf("index: invalid bloom parameters (m=%d k=%d)", countersPerClient, k)
	}
	return &BloomIndex{filters: make(map[int]*bloom.Counting), counters: countersPerClient, k: k}, nil
}

func (b *BloomIndex) filter(client int) *bloom.Counting {
	f, ok := b.filters[client]
	if !ok {
		f, _ = bloom.NewCounting(b.counters, b.k)
		b.filters[client] = f
	}
	return f
}

// Add records that client caches url.
func (b *BloomIndex) Add(client int, url string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.filter(client).Add(url)
}

// Remove withdraws one insertion of url for client.
func (b *BloomIndex) Remove(client int, url string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.filter(client).Remove(url)
}

// Candidates returns the clients (≠ requester) whose filters report url,
// sorted ascending. Some may be false positives.
func (b *BloomIndex) Candidates(url string, requester int) []int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []int
	for c, f := range b.filters {
		if c == requester {
			continue
		}
		if f.Contains(url) {
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

// SizeBytes reports the total filter footprint.
func (b *BloomIndex) SizeBytes() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var n int64
	for _, f := range b.filters {
		n += f.SizeBytes()
	}
	return n
}
