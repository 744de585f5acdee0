package cache

import "baps/internal/intern"

// IDTwoTier models the paper's §4.2 memory/disk cache split: a cache of
// total capacity C whose hottest documents live in a memory portion (the
// paper sets it to 1/10 of the cache, following the Squid configuration
// study it cites). The memory portion is managed LRU over the resident set:
// every reference promotes the document to memory, demoting the least
// recently used memory documents to disk. Demotion never evicts from the
// cache as a whole; overall residency is governed by the policy.
//
// The memory portion is an LRU list (memLRU) threaded through the inner
// cache's own entries, so GetTier, Put and eviction cost the inner cache's
// one slot lookup plus O(1) link updates, under every policy and in both
// slot modes. TwoTier is its string-keyed face.
type IDTwoTier struct {
	inner tieredCache
	mem   *memLRU
}

// tieredCache is what IDTwoTier needs from its inner cache beyond IDCache:
// the slot lookup, whose non-zero result is the entry's memLRU handle, the
// document under a handle, and a Get that maintains the memory tier in the
// same pass.
type tieredCache interface {
	IDCache
	lookup(id intern.ID) int32
	docAt(h int32) IDDoc
	getTier(id intern.ID) (IDDoc, Tier, bool)
}

// NewIDTwoTier builds a two-tier ID-keyed cache with the given overall
// policy, total byte capacity and memory-portion byte capacity. opts apply to
// the whole cache: Sparse selects the sparse slot table, OnEvict observes
// evictions from the cache (memory-tier demotions are silent).
func NewIDTwoTier(policy Policy, capacity, memCapacity int64, opts ...IDOptions) (*IDTwoTier, error) {
	if memCapacity < 0 || memCapacity > capacity {
		return nil, ErrCapacity
	}
	var o IDOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	mem := &memLRU{capacity: memCapacity, links: make([]memLink, 1)}
	inner, err := newIDCache(policy, capacity, o, mem)
	if err != nil {
		return nil, err
	}
	return &IDTwoTier{inner: inner, mem: mem}, nil
}

// GetTier looks up a document, reporting which tier served it; the document
// is promoted to the memory tier and referenced in the underlying policy.
func (t *IDTwoTier) GetTier(id intern.ID) (IDDoc, Tier, bool) { return t.inner.getTier(id) }

// seed is Put for a document that must not enter the memory tier (a body
// re-seated on disk): while the tier's capacity is negative it refuses every
// charge, so the inner cache's admission leaves it untouched, exactly as if
// the document had been stored in the policy cache alone.
func (t *IDTwoTier) seed(doc IDDoc) ([]IDDoc, bool) {
	memCap := t.mem.capacity
	t.mem.capacity = -1
	evicted, admitted := t.inner.Put(doc)
	t.mem.capacity = memCap
	return evicted, admitted
}

// observeDemotions makes f see every document the memory tier demotes, at
// the moment it leaves the tier (it stays resident in the cache). f must not
// call back into the cache.
func (t *IDTwoTier) observeDemotions(f func(IDDoc)) {
	t.mem.demoted = func(h int32) { f(t.inner.docAt(h)) }
}

// InMemory reports whether a resident document currently occupies the memory
// tier, without updating any replacement state.
func (t *IDTwoTier) InMemory(id intern.ID) bool { return t.mem.resident(t.inner.lookup(id)) }

// MemoryCapacity reports the memory-portion capacity in bytes.
func (t *IDTwoTier) MemoryCapacity() int64 { return t.mem.capacity }

// MemoryUsed reports the bytes resident in the memory portion.
func (t *IDTwoTier) MemoryUsed() int64 { return t.mem.used }

// Get implements IDCache.
func (t *IDTwoTier) Get(id intern.ID) (IDDoc, bool) { return t.inner.Get(id) }

// Peek implements IDCache.
func (t *IDTwoTier) Peek(id intern.ID) (IDDoc, bool) { return t.inner.Peek(id) }

// Put implements IDCache. A newly admitted document passes through memory
// first, as a freshly fetched body would. The returned slice is valid only
// until the next Put.
func (t *IDTwoTier) Put(doc IDDoc) ([]IDDoc, bool) { return t.inner.Put(doc) }

// Remove implements IDCache.
func (t *IDTwoTier) Remove(id intern.ID) bool { return t.inner.Remove(id) }

// Len implements IDCache.
func (t *IDTwoTier) Len() int { return t.inner.Len() }

// Used implements IDCache.
func (t *IDTwoTier) Used() int64 { return t.inner.Used() }

// Capacity implements IDCache.
func (t *IDTwoTier) Capacity() int64 { return t.inner.Capacity() }

// Policy implements IDCache.
func (t *IDTwoTier) Policy() Policy { return t.inner.Policy() }

// IDs implements IDCache.
func (t *IDTwoTier) IDs() []intern.ID { return t.inner.IDs() }

// Reset implements IDCache, emptying both tiers in place. The memory-tier
// capacity is left unchanged; use ResetTiers to change both.
func (t *IDTwoTier) Reset(capacity int64) {
	t.ResetTiers(capacity, t.mem.capacity)
}

// ResetTiers empties the cache in place with explicit total and memory-tier
// capacities, retaining allocated storage.
func (t *IDTwoTier) ResetTiers(capacity, memCapacity int64) {
	t.inner.Reset(capacity)
	t.mem.reset(memCapacity)
}

// memLRU is an IDTwoTier's memory portion: an LRU list threaded through the
// inner cache's entries. An entry is addressed by its handle — the non-zero
// value the inner cache's slot table holds for a resident document
// (idListCache's node index, idHeapCache's entry index + 1), which stays put
// while the document is resident — so checking, promoting or demoting it is
// one index into links. links[0] is the sentinel of the circular list, which
// runs from the next demotion victim (front) to the most recently referenced
// entry (back). The inner cache calls put when it admits or replaces a
// document and remove when one leaves it; links grows on demand, so a
// handle beyond its end is simply not memory-resident.
//
// Cost: 16 bytes per entry slot the inner cache has ever used, nothing per
// document ID and no separate slot table.
type memLRU struct {
	capacity, used int64
	links          []memLink
	// demoted, when set, observes each demotion by handle (observeDemotions);
	// the simulator leaves it nil.
	demoted func(h int32)
}

// memLink is one entry's place in the memory tier. size is the charge the
// entry was admitted at, kept apart from the document: re-storing a larger
// version that no longer fits in memory leaves the resident copy's place and
// charge untouched, exactly as a separate memory-portion cache would.
type memLink struct {
	prev, next int32 // list neighbours; prev < 0 when not memory-resident
	size       int64
}

// resident reports whether handle h is in the memory tier (h == 0, "not in
// the cache", never is).
func (m *memLRU) resident(h int32) bool {
	return h > 0 && int(h) < len(m.links) && m.links[h].prev >= 0
}

// touch is put for a reference: it reports the tier the reference was served
// from, then promotes h.
func (m *memLRU) touch(h int32, size int64) Tier {
	tier := TierDisk
	if m.resident(h) {
		tier = TierMemory
	}
	m.put(h, size)
	return tier
}

// put charges size for h and makes it the most recently referenced entry,
// demoting from the front until the tier fits again (never h itself). A
// document larger than the whole tier is refused and h keeps whatever place
// it had.
func (m *memLRU) put(h int32, size int64) {
	if size > m.capacity {
		return
	}
	for int(h) >= len(m.links) {
		m.links = append(m.links, memLink{prev: -1})
	}
	if m.links[h].prev >= 0 {
		m.used -= m.links[h].size
		m.unlink(h)
	}
	m.links[h].size = size
	m.used += size
	tail := m.links[0].prev
	m.links[tail].next = h
	m.links[h].prev, m.links[h].next = tail, 0
	m.links[0].prev = h
	for m.used > m.capacity {
		victim := m.links[0].next
		if victim == h {
			victim = m.links[h].next
		}
		if victim == 0 {
			break
		}
		m.remove(victim)
		if m.demoted != nil {
			m.demoted(victim)
		}
	}
}

// remove takes h out of the memory tier, if it is there.
func (m *memLRU) remove(h int32) {
	if !m.resident(h) {
		return
	}
	m.unlink(h)
	m.used -= m.links[h].size
	m.links[h].prev = -1
}

func (m *memLRU) unlink(h int32) {
	l := m.links[h]
	m.links[l.prev].next = l.next
	m.links[l.next].prev = l.prev
}

// reset empties the tier and adopts a new capacity, keeping links' storage.
func (m *memLRU) reset(capacity int64) {
	m.links = m.links[:1]
	m.links[0] = memLink{}
	m.used = 0
	m.capacity = capacity
}
