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
// An IDTwoTier is a view of one member of a Pool: NewIDTwoTier builds a
// one-member pool, Pool.Member views a member of a larger one. TwoTier is
// its string-keyed face.
type IDTwoTier struct {
	p *Pool
	m int32
}

// NewIDTwoTier builds a two-tier ID-keyed cache with the given overall
// policy, total byte capacity and memory-portion byte capacity. OnEvict in
// opts observes evictions from the cache (memory-tier demotions are silent).
func NewIDTwoTier(policy Policy, capacity, memCapacity int64, opts ...IDOptions) (*IDTwoTier, error) {
	if capacity < 0 || memCapacity < 0 || memCapacity > capacity {
		return nil, ErrCapacity
	}
	p, err := NewPool(policy, 1)
	if err != nil {
		return nil, err
	}
	if len(opts) > 0 {
		p.onEvict = opts[0].OnEvict
	}
	p.ResetTiers(0, capacity, memCapacity)
	return &IDTwoTier{p: p}, nil
}

// GetTier looks up a document, reporting which tier served it; the document
// is promoted to the memory tier and referenced in the underlying policy.
func (t *IDTwoTier) GetTier(id intern.ID) (IDDoc, Tier, bool) { return t.p.GetTier(int(t.m), id) }

// seed is Put for a document that must not enter the memory tier (a body
// re-seated on disk): the memory tier is left exactly as if the document had
// been stored in the policy cache alone.
func (t *IDTwoTier) seed(doc IDDoc) ([]IDDoc, bool) { return t.p.put(int(t.m), doc, true) }

// observeDemotions makes f see every document the memory tier demotes, at
// the moment it leaves the tier (it stays resident in the cache). f must not
// call back into the cache. It observes every member of the pool.
func (t *IDTwoTier) observeDemotions(f func(IDDoc)) { t.p.onDemote = f }

// InMemory reports whether a resident document currently occupies the memory
// tier, without updating any replacement state.
func (t *IDTwoTier) InMemory(id intern.ID) bool {
	n := t.p.slots.get(t.m, id)
	return n != 0 && t.p.nodes[n].memPrev >= 0
}

// MemoryCapacity reports the memory-portion capacity in bytes.
func (t *IDTwoTier) MemoryCapacity() int64 { return t.p.members[t.m].memCapacity }

// MemoryUsed reports the bytes resident in the memory portion.
func (t *IDTwoTier) MemoryUsed() int64 { return t.p.members[t.m].memUsed }

// Get implements IDCache.
func (t *IDTwoTier) Get(id intern.ID) (IDDoc, bool) {
	doc, _, ok := t.p.GetTier(int(t.m), id)
	return doc, ok
}

// Peek implements IDCache.
func (t *IDTwoTier) Peek(id intern.ID) (IDDoc, bool) { return t.p.Peek(int(t.m), id) }

// Put implements IDCache. A newly admitted document passes through memory
// first, as a freshly fetched body would. The returned slice is valid only
// until the next Put.
func (t *IDTwoTier) Put(doc IDDoc) ([]IDDoc, bool) { return t.p.put(int(t.m), doc, false) }

// Remove implements IDCache.
func (t *IDTwoTier) Remove(id intern.ID) bool { return t.p.Remove(int(t.m), id) }

// Len implements IDCache.
func (t *IDTwoTier) Len() int { return t.p.Len(int(t.m)) }

// Used implements IDCache.
func (t *IDTwoTier) Used() int64 { return t.p.members[t.m].used }

// Capacity implements IDCache.
func (t *IDTwoTier) Capacity() int64 { return t.p.members[t.m].capacity }

// Policy implements IDCache.
func (t *IDTwoTier) Policy() Policy { return t.p.policy }

// IDs implements IDCache.
func (t *IDTwoTier) IDs() []intern.ID { return t.p.ids(int(t.m)) }

// Reset implements IDCache, emptying both tiers in place. The memory-tier
// capacity is left unchanged; use ResetTiers to change both.
func (t *IDTwoTier) Reset(capacity int64) {
	t.ResetTiers(capacity, t.MemoryCapacity())
}

// ResetTiers empties the cache in place with explicit total and memory-tier
// capacities, retaining allocated storage.
func (t *IDTwoTier) ResetTiers(capacity, memCapacity int64) {
	t.p.ResetTiers(int(t.m), capacity, memCapacity)
}
