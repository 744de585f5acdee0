package cache

import "baps/internal/intern"

// Tier identifies where within a two-tier cache a hit was served from.
type Tier int

const (
	// TierMemory means the document was resident in the memory portion.
	TierMemory Tier = iota
	// TierDisk means the document was resident but only on disk.
	TierDisk
)

// String names the tier.
func (t Tier) String() string {
	if t == TierMemory {
		return "memory"
	}
	return "disk"
}

// TwoTier is the string-keyed face of IDTwoTier, for the live proxy, the
// browser agents and internal/coop's sibling proxies: the same engine the
// simulator runs, keyed by URL. Each resident key holds a slot, an ID of
// the engine's; a slot is freed when its document is evicted or removed, or
// when a new key is refused, and reused by the next new key, so the slot
// space is bounded by the resident set however many URLs pass through.
type TwoTier struct {
	ids     *IDTwoTier
	slots   map[string]intern.ID
	keys    []string // keys[id] is the key holding slot id; "" when free
	free    []intern.ID
	onEvict EvictFunc
	evicted []Doc // the evictions of the last Put or Seed, reused by the next
}

// NewTwoTier builds a two-tier cache with the given overall policy, total
// byte capacity and memory-portion byte capacity. The Options callbacks
// observe capacity evictions (OnEvict) and memory-tier demotions (OnDemote).
func NewTwoTier(policy Policy, capacity, memCapacity int64, opts ...Options) (*TwoTier, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	t := &TwoTier{slots: make(map[string]intern.ID), onEvict: o.OnEvict}
	ids, err := NewIDTwoTier(policy, capacity, memCapacity, IDOptions{OnEvict: t.evict})
	if err != nil {
		return nil, err
	}
	if o.OnDemote != nil {
		ids.observeDemotions(func(d IDDoc) { o.OnDemote(t.doc(d)) })
	}
	t.ids = ids
	return t, nil
}

// GetTier looks up a document, reporting which tier served it. The document
// is promoted to the memory tier (demoting others as needed) and referenced
// in the policy, as a real proxy faults a disk-held object into its
// hot-object memory.
func (t *TwoTier) GetTier(key string) (Doc, Tier, bool) {
	id, ok := t.slots[key]
	if !ok {
		return Doc{}, TierDisk, false
	}
	d, tier, _ := t.ids.GetTier(id)
	return Doc{Key: key, Size: d.Size, Version: d.Version}, tier, true
}

// Peek looks up a document without updating any replacement state.
func (t *TwoTier) Peek(key string) (Doc, bool) {
	id, ok := t.slots[key]
	if !ok {
		return Doc{}, false
	}
	d, _ := t.ids.Peek(id)
	return Doc{Key: key, Size: d.Size, Version: d.Version}, true
}

// Put inserts or replaces a document, evicting as needed, and reports the
// evicted documents (never doc itself) and whether doc was admitted. A newly
// admitted document passes through memory first, as a freshly fetched body
// would. A document larger than the cache is refused and nothing moves; a
// refused re-store leaves the older copy resident. The evicted slice is the
// cache's own buffer, valid until the next Put or Seed: a caller that keeps
// it longer copies it.
func (t *TwoTier) Put(doc Doc) ([]Doc, bool) { return t.store(doc, false) }

// Seed is Put without entering the memory tier: it re-seats residency from
// a disk-store replay, where the body stays on disk until its first
// post-restart access.
func (t *TwoTier) Seed(doc Doc) ([]Doc, bool) { return t.store(doc, true) }

func (t *TwoTier) store(doc Doc, seed bool) ([]Doc, bool) {
	t.evicted = t.evicted[:0]
	id, resident := t.slots[doc.Key]
	if !resident {
		id = t.claim(doc.Key)
	}
	d := IDDoc{ID: id, Size: doc.Size, Version: doc.Version}
	var admitted bool
	if seed {
		_, admitted = t.ids.seed(d)
	} else {
		_, admitted = t.ids.Put(d)
	}
	if !admitted && !resident {
		t.release(id)
	}
	return t.evicted, admitted
}

// Remove deletes a document if resident, reporting whether it was. It is an
// explicit invalidation, not a capacity eviction: OnEvict does not fire.
func (t *TwoTier) Remove(key string) bool {
	id, ok := t.slots[key]
	if !ok {
		return false
	}
	t.ids.Remove(id)
	t.release(id)
	return true
}

// Keys returns the resident keys in eviction order (the first is the next
// victim). It allocates; for index re-synchronization and diagnostics.
func (t *TwoTier) Keys() []string {
	ids := t.ids.IDs()
	keys := make([]string, len(ids))
	for i, id := range ids {
		keys[i] = t.keys[id]
	}
	return keys
}

// Len reports the number of resident documents.
func (t *TwoTier) Len() int { return t.ids.Len() }

// Used reports the resident bytes.
func (t *TwoTier) Used() int64 { return t.ids.Used() }

// Capacity reports the total capacity in bytes.
func (t *TwoTier) Capacity() int64 { return t.ids.Capacity() }

// evict is the engine's eviction callback: the slot is freed before the
// caller's OnEvict sees the document.
func (t *TwoTier) evict(d IDDoc) {
	doc := t.doc(d)
	t.release(d.ID)
	t.evicted = append(t.evicted, doc)
	if t.onEvict != nil {
		t.onEvict(doc)
	}
}

func (t *TwoTier) doc(d IDDoc) Doc {
	return Doc{Key: t.keys[d.ID], Size: d.Size, Version: d.Version}
}

// claim gives key a slot, reusing a freed one first.
func (t *TwoTier) claim(key string) intern.ID {
	var id intern.ID
	if n := len(t.free); n > 0 {
		id = t.free[n-1]
		t.free = t.free[:n-1]
		t.keys[id] = key
	} else {
		id = intern.ID(len(t.keys))
		t.keys = append(t.keys, key)
	}
	t.slots[key] = id
	return id
}

// release frees id's slot.
func (t *TwoTier) release(id intern.ID) {
	delete(t.slots, t.keys[id])
	t.keys[id] = ""
	t.free = append(t.free, id)
}
