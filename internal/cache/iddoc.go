package cache

import (
	"fmt"

	"baps/internal/intern"
)

// IDDoc is the engine's document: Doc with a dense intern.ID in place of its
// URL string. The simulator's hot path uses IDDoc end-to-end so cache probes
// never hash a URL; TwoTier maps URLs to IDs of its own.
type IDDoc struct {
	ID      intern.ID
	Size    int64
	Version int64
}

// IDEvictFunc observes capacity evictions from an ID-keyed cache. It must
// not call back into the cache.
type IDEvictFunc func(IDDoc)

// IDOptions configures a cache constructed by NewID.
type IDOptions struct {
	// OnEvict, if non-nil, is invoked for every document evicted to make
	// room (not for Remove or for replaced versions of the same ID).
	OnEvict IDEvictFunc

	// Sparse selects a hash-based docID→slot table instead of the dense
	// per-instance slice, trading a few ns per probe for memory that
	// scales with resident documents rather than the document-ID space.
	// Replacement behavior is identical. Meant for deployments with very
	// many cache instances (one per simulated browser at 10^6-client
	// scale); LRU/FIFO only — heap-backed policies ignore it (their
	// footprint is already resident-bounded except for the shared slot
	// slice, and they are not used at that scale).
	Sparse bool
}

// IDCache is a byte-bounded document cache keyed by intern.ID. Two details
// serve the allocation-free hot path:
//
//   - Put returns an eviction slice that is reused by the next Put on the
//     same cache; callers must consume (or copy) it before calling Put again.
//   - Reset empties the cache in place, retaining allocated capacity, so
//     sweep workers can replay many configurations without re-growing the
//     backing arrays.
type IDCache interface {
	// Get looks up a document and applies the policy's reference update
	// (e.g. LRU promotion, LFU frequency increment).
	Get(id intern.ID) (doc IDDoc, ok bool)

	// Peek looks up a document without updating replacement state.
	Peek(id intern.ID) (doc IDDoc, ok bool)

	// Put inserts or replaces a document, evicting as needed. It returns
	// the evicted documents (never including doc itself), valid only until
	// the next Put call, and whether doc was admitted. A document larger
	// than the capacity is not admitted and nothing is evicted for it.
	Put(doc IDDoc) (evicted []IDDoc, admitted bool)

	// Remove deletes a document if resident, reporting whether it was.
	// Removal does not invoke the eviction callback: it represents an
	// explicit invalidation, not a capacity eviction.
	Remove(id intern.ID) bool

	// Len reports the number of resident documents.
	Len() int

	// Used reports the resident bytes.
	Used() int64

	// Capacity reports the configured capacity in bytes.
	Capacity() int64

	// Policy reports the replacement policy.
	Policy() Policy

	// IDs returns the resident document IDs in eviction order (the first
	// is the next victim). It allocates; for tests and diagnostics.
	IDs() []intern.ID

	// Reset empties the cache and sets a new capacity, keeping allocated
	// backing storage for reuse.
	Reset(capacity int64)
}

// NewID builds an ID-keyed cache with the given policy and capacity in
// bytes. A zero capacity yields a cache that admits nothing, which models
// the paper's organizations that lack a browser or proxy cache.
func NewID(policy Policy, capacity int64, opts ...IDOptions) (IDCache, error) {
	var o IDOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	return newIDCache(policy, capacity, o, nil)
}

// newIDCache builds the policy's cache; mem, when non-nil, is the memory
// tier of the IDTwoTier it will sit inside.
func newIDCache(policy Policy, capacity int64, o IDOptions, mem *memLRU) (tieredCache, error) {
	if capacity < 0 {
		return nil, ErrCapacity
	}
	switch policy {
	case LRU:
		return newIDListCache(capacity, true, o, mem), nil
	case FIFO:
		return newIDListCache(capacity, false, o, mem), nil
	case LFU, SIZE, GDSF:
		return newIDHeapCache(policy, capacity, o, mem), nil
	default:
		return nil, fmt.Errorf("cache: unknown policy %v", policy)
	}
}

// MustNewID is NewID, panicking on error.
func MustNewID(policy Policy, capacity int64, opts ...IDOptions) IDCache {
	c, err := NewID(policy, capacity, opts...)
	if err != nil {
		panic(err)
	}
	return c
}
