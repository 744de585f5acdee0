package cache

import "baps/internal/intern"

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

// IDOptions configures a cache constructed by NewID or NewIDTwoTier (a
// one-member pool; a larger pool reports its members' evictions only
// through Put's result).
type IDOptions struct {
	// OnEvict, if non-nil, is invoked for every document evicted to make
	// room (not for Remove or for replaced versions of the same ID).
	OnEvict IDEvictFunc
}

// IDCache is a byte-bounded document cache keyed by intern.ID. Two details
// serve the allocation-free hot path:
//
//   - Put returns an eviction slice that is reused by the next Put on the
//     same pool; callers must consume (or copy) it before calling Put again.
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
// bytes: an IDTwoTier whose memory tier holds nothing. A zero capacity
// yields a cache that admits nothing, which models the paper's
// organizations that lack a browser or proxy cache.
func NewID(policy Policy, capacity int64, opts ...IDOptions) (IDCache, error) {
	c, err := NewIDTwoTier(policy, capacity, 0, opts...)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// MustNewID is NewID, panicking on error.
func MustNewID(policy Policy, capacity int64, opts ...IDOptions) IDCache {
	c, err := NewID(policy, capacity, opts...)
	if err != nil {
		panic(err)
	}
	return c
}
