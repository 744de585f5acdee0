// Package index implements the browser index file at the heart of the
// browsers-aware proxy server (paper §2): a directory, kept at the proxy, of
// every document cached in every connected client's browser cache.
//
// Each index item records the client machine id, the interned document ID
// (the live system additionally carries a 16-byte MD5 signature; URL ⇄ ID
// mapping lives in baps/internal/intern), the document size, and a
// version/time stamp. The package provides:
//
//   - Index: the exact directory, holders kept client-sorted in blocks of
//     one pointer-free arena behind an 8 B head per document, with
//     pluggable holder-selection strategies. Single-goroutine, like
//     core.System: it takes no locks;
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
	"math/bits"
	"slices"
	"sort"
	"sync"

	"baps/internal/bloom"
	"baps/internal/intern"
)

// Entry is one browser-index item.
type Entry struct {
	// Client is the holder's client id, in [0, 2³¹).
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
	// Zero means no expiry. Expired entries are skipped by AppendOrdered
	// and purged by PruneExpired.
	Expire float64
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

// Index is the exact browser directory. Every slice in it is pointer-free:
// the holders of all documents live in one arena of 40 B records, and each
// document has an 8 B head locating its block of the arena, in which its
// holders are kept sorted by client id. Blocks hold a power of two of
// records. A full block moves to one twice its size; a block whose holders
// fall to a quarter of it moves to one half full, and a block left empty
// is freed. Freed blocks wait on a free list per size for the next document
// that needs one, so the arena follows the live holders rather than each
// document's historical maximum. No lookup hashes a string and no entry is
// a heap object of its own.
//
// An Index is not safe for concurrent use: the simulator drives one per
// goroutine, like core.System, and the live proxy uses Sharded, which puts
// each of its Index shards behind a lock of its own.
type Index struct {
	strategy Strategy
	ct       *clientTable // shared by all shards of a Sharded

	// A document's head is heads[doc/stride]. A shard of an n-shard
	// Sharded holds the documents phase, phase+n, phase+2n, …, so its
	// stride is n; a plain Index has stride 1 and phase 0.
	stride, phase uint32

	heads   []head
	arena   []holder             // arena[0] is never used, so offset 0 means "no block"
	free    [maxClass + 1]uint32 // free[c]: first free block of 1<<c records
	held    []int32              // held[client] counts client's entries in this index
	entries int                  // total entries in this index (shard)
	docs    int                  // documents with at least one holder
}

// holder is one entry as the arena keeps it: the document is the key of the
// block it sits in. In a free block, the first record's size is the offset
// of the next free block of the same size.
type holder struct {
	size, version int64
	stamp, expire float64
	client        int32
}

// head locates one document's holders: the first n of the 1<<class records
// at off. A document without holders has no block (head{}). n leaves 27 bits
// for the count, so a document has at most 2²⁷ holders.
type head struct {
	off uint32
	n   uint32 // holders<<classBits | class
}

const (
	classBits = 5
	maxClass  = 1<<classBits - 1
)

func (h head) len() int                   { return int(h.n >> classBits) }
func (h head) class() uint                { return uint(h.n & maxClass) }
func (r holder) expired(now float64) bool { return r.expire != 0 && now >= r.expire }

func (r holder) entry(doc intern.ID) Entry {
	return Entry{Client: int(r.client), Doc: doc, Size: r.size, Version: r.version, Stamp: r.stamp, Expire: r.expire}
}

// set stores e in r field by field: a whole-record copy from a temporary
// would be read back in 16-byte moves that stall on its 8-byte stores.
func (r *holder) set(e *Entry) {
	r.size, r.version, r.stamp, r.expire, r.client = e.Size, e.Version, e.Stamp, e.Expire, int32(e.Client)
}

// New creates an empty index with the given holder-selection strategy.
func New(strategy Strategy) *Index {
	return &Index{strategy: strategy, ct: newClientTable(), stride: 1}
}

// Grow pre-sizes the head table for document IDs in [0, numDocs), sparing
// the hot path incremental growth. The simulator calls it with the trace's
// document count.
func (x *Index) Grow(numDocs int) {
	if n := (numDocs + int(x.stride) - 1) / int(x.stride); n > len(x.heads) {
		x.heads = slices.Grow(x.heads, n-len(x.heads))[:n]
	}
}

// head returns doc's head, or nil when doc has never had a holder here.
func (x *Index) head(doc intern.ID) *head {
	if i := int(uint32(doc) / x.stride); doc >= 0 && i < len(x.heads) {
		return &x.heads[i]
	}
	return nil
}

// holders returns the holders h locates, sorted by client id.
func (x *Index) holders(h head) []holder {
	end := h.off + uint32(h.len())
	return x.arena[h.off:end:end]
}

// docOf is the document whose head is heads[i].
func (x *Index) docOf(i int) intern.ID { return intern.ID(uint32(i)*x.stride + x.phase) }

// alloc takes a block of 1<<class records off its free list, or from the
// end of the arena.
func (x *Index) alloc(class uint) uint32 {
	if off := x.free[class]; off != 0 {
		x.free[class] = uint32(x.arena[off].size)
		return off
	}
	if len(x.arena) == 0 {
		x.arena = append(x.arena, holder{})
	}
	off := uint32(len(x.arena))
	x.arena = append(x.arena, make([]holder, 1<<class)...)
	return off
}

// resize moves h's holders to a new block of 1<<class records, freeing the
// old block.
func (x *Index) resize(h *head, class uint) {
	n := h.len()
	off := x.alloc(class)
	if n > 0 {
		copy(x.arena[off:off+uint32(n)], x.holders(*h))
		x.release(*h)
	}
	*h = head{off: off, n: uint32(n)<<classBits | uint32(class)}
}

// release puts h's block on its free list.
func (x *Index) release(h head) {
	x.arena[h.off].size = int64(x.free[h.class()])
	x.free[h.class()] = h.off
}

// shrunk records that h now has n holders, n <= h.len(): an empty block is
// freed, and one at a quarter of its size or less moves to a block that n
// fills by half.
func (x *Index) shrunk(h *head, n int) {
	if n == 0 {
		x.release(*h)
		*h = head{}
		x.docs--
		return
	}
	c := h.class()
	h.n = uint32(n)<<classBits | uint32(c)
	if c >= 2 && n<<2 <= 1<<c {
		x.resize(h, uint(bits.Len(uint(2*n-1))))
	}
}

// addHeld adjusts client's entry count by delta.
func (x *Index) addHeld(client int, delta int32) {
	if client >= len(x.held) {
		x.held = append(x.held, make([]int32, client+1-len(x.held))...)
	}
	x.held[client] += delta
}

// Held reports how many entries client has in this index, without walking
// the directory.
func (x *Index) Held(client int) int {
	if client < 0 || client >= len(x.held) {
		return 0
	}
	return int(x.held[client])
}

// holderPos returns the position of client within the sorted holder list,
// and whether it is present.
func holderPos(hs []holder, client int) (int, bool) {
	lo, hi := 0, len(hs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(hs[mid].client) < client {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(hs) && int(hs[lo].client) == client
}

// Add records (or refreshes) an entry.
func (x *Index) Add(e Entry) {
	if e.Doc < 0 {
		panic(fmt.Sprintf("index: negative document ID %d", e.Doc))
	}
	i := int(uint32(e.Doc) / x.stride)
	if i >= len(x.heads) {
		x.heads = slices.Grow(x.heads, i+1-len(x.heads))[:i+1]
	}
	h := &x.heads[i]
	pos, found := holderPos(x.holders(*h), e.Client)
	if found {
		x.arena[h.off+uint32(pos)].set(&e)
		return
	}
	n := h.len()
	switch {
	case n == 0:
		x.resize(h, 0)
		x.docs++
	case n == 1<<h.class():
		x.resize(h, h.class()+1)
	}
	hs := x.arena[h.off : h.off+uint32(n)+1]
	copy(hs[pos+1:], hs[pos:n])
	hs[pos].set(&e)
	h.n += 1 << classBits
	x.entries++
	x.addHeld(e.Client, 1)
}

// Remove deletes client's entry for doc (the §2 invalidation message),
// reporting whether it existed.
func (x *Index) Remove(client int, doc intern.ID) bool {
	h := x.head(doc)
	if h == nil {
		return false
	}
	hs := x.holders(*h)
	pos, found := holderPos(hs, client)
	if !found {
		return false
	}
	copy(hs[pos:], hs[pos+1:])
	x.shrunk(h, len(hs)-1)
	x.entries--
	x.addHeld(client, -1)
	return true
}

// Lookup returns all recorded holders of doc, sorted by client id. The
// returned slice is a copy.
func (x *Index) Lookup(doc intern.ID) []Entry {
	h := x.head(doc)
	if h == nil || h.len() == 0 {
		return nil
	}
	out := make([]Entry, 0, h.len())
	for _, r := range x.holders(*h) {
		out = append(out, r.entry(doc))
	}
	return out
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

// AppendOrdered appends the holders of doc except requester to buf
// (normally a reused scratch slice with spare capacity), sorted by the
// index's strategy preference (best candidate first), and returns the
// extended slice. Entries whose Expire lies at or before now are omitted;
// now == 0 disables filtering. It does not account a served transfer;
// callers that contact a candidate confirm with AccountServe. This supports
// the stale-entry retry loop: under the periodic update protocol an index
// entry may name a browser that already evicted the document, and the proxy
// then tries the next candidate. It is the one holder-selection entry point:
// the simulator calls it once per proxy miss, the live proxy once per remote
// resolution.
func (x *Index) AppendOrdered(buf []Entry, doc intern.ID, requester int, now float64) []Entry {
	start := len(buf)
	if h := x.head(doc); h != nil {
		for _, r := range x.holders(*h) {
			if int(r.client) == requester || (now != 0 && r.expired(now)) {
				continue
			}
			buf = append(buf, r.entry(doc))
		}
	}
	// better ends on the client id, unique among a document's holders, so
	// the order is total and an unstable sort yields the one sorted order.
	slices.SortFunc(buf[start:], func(a, b Entry) int {
		switch {
		case a.Client == b.Client:
			return 0
		case x.better(a, b):
			return -1
		}
		return 1
	})
	return buf
}

// PruneExpired removes every entry whose TTL ran out at time now, returning
// the number removed. The proxy runs this as periodic housekeeping.
func (x *Index) PruneExpired(now float64) int {
	n := 0
	for i := range x.heads {
		h := &x.heads[i]
		hs := x.holders(*h)
		kept := hs[:0]
		for _, r := range hs {
			if r.expired(now) {
				x.addHeld(int(r.client), -1)
				continue
			}
			kept = append(kept, r)
		}
		if len(kept) < len(hs) {
			n += len(hs) - len(kept)
			x.entries -= len(hs) - len(kept)
			x.shrunk(h, len(kept))
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
	h := x.head(doc)
	if h == nil {
		return Entry{}, false
	}
	hs := x.holders(*h)
	pos, found := holderPos(hs, client)
	if !found {
		return Entry{}, false
	}
	return hs[pos].entry(doc), true
}

// ClientDocs returns a copy of client's directory, sorted by document ID.
func (x *Index) ClientDocs(client int) []Entry {
	var out []Entry
	for i, h := range x.heads {
		hs := x.holders(h)
		if pos, found := holderPos(hs, client); found {
			out = append(out, hs[pos].entry(x.docOf(i)))
		}
	}
	return out
}

// ForEachClientDoc calls fn for every document client currently holds; fn
// must not call back into the index. Allocation-free, unlike ClientDocs.
func (x *Index) ForEachClientDoc(client int, fn func(doc intern.ID)) {
	for i, h := range x.heads {
		if _, found := holderPos(x.holders(h), client); found {
			fn(x.docOf(i))
		}
	}
}

// dropEntries removes every entry of client, leaving its served count
// untouched. Returns the number of entries removed.
func (x *Index) dropEntries(client int) int {
	n := 0
	for i := range x.heads {
		if x.Remove(client, x.docOf(i)) {
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
	for i, h := range x.heads {
		if h.len() > 0 {
			fn(x.docOf(i))
		}
	}
}

// URLCount reports the number of distinct documents currently indexed.
func (x *Index) URLCount() int { return x.docs }

// Reset empties the index in place, retaining the head table and the
// arena's capacity, so sweep workers can replay many configurations without
// re-growing. Served counters reset too.
func (x *Index) Reset() {
	clear(x.heads)
	x.arena = x.arena[:0]
	x.free = [maxClass + 1]uint32{}
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
