// Package cache provides the replacement-policy cache substrate used by both
// the trace-driven simulator and the live browsers-aware proxy system.
//
// The paper ("On Reliable and Scalable Peer-to-Peer Web Document Sharing",
// IPDPS 2002, §3.2) simulates every browser cache and the proxy cache with an
// LRU replacement policy; this package implements LRU plus FIFO, LFU, SIZE and
// GDSF variants so the design choice can be ablated, and the §4.2 memory/disk
// split (a memory portion of 1/10 of the cache) on top of them.
//
// There is one engine, Pool (pool.go): a set of member caches sharing one
// policy, one pointer-free node arena and one (member, document) → node
// table, with every policy and the memory tier written once on it.
// IDTwoTier is a view of one member, keyed by dense intern.IDs; NewIDTwoTier
// and NewID build a one-member pool, and the simulator keeps all of an
// organization's browsers as the members of one pool. TwoTier is the
// string-keyed face for the live proxy, the browser agents and
// internal/coop: a map from URL to a slot ID that is freed on eviction,
// removal or refusal, so the slot table never outgrows the largest resident
// set plus the document being admitted. One behaviour of the face is its
// own: OnDemote reports the resident document's version and size, which
// after a Seed or a re-store too large for the memory tier are newer than
// those of the copy the memory tier was charged for.
//
// Caches are byte-capacity bounded: a document occupies its Size in bytes
// and the sum of resident sizes never exceeds the capacity. All caches in
// this package are safe for use by a single goroutine; wrap with a mutex (as
// internal/browser and internal/proxy do) for concurrent use. This keeps the
// simulator's inner loop free of synchronization cost.
package cache

import (
	"errors"
	"fmt"
)

// Doc describes one cached web document. Key is the canonical document
// identifier (normally the full URL; the live system also carries an MD5
// signature in the index). Size is the body size in bytes and participates in
// capacity accounting. Version identifies the document generation: the
// simulator bumps it when the origin modifies a document, so a stale cached
// copy can be recognized ("if a user request hits on a document whose size
// has been changed, we count it as a cache miss", §3.2).
type Doc struct {
	Key     string
	Size    int64
	Version int64
}

// Policy selects a replacement policy.
type Policy int

const (
	// LRU evicts the least recently used document (the paper's policy).
	LRU Policy = iota
	// FIFO evicts in insertion order; a Get does not promote.
	FIFO
	// LFU evicts the least frequently used document, ties broken by recency.
	LFU
	// SIZE evicts the largest document first.
	SIZE
	// GDSF is GreedyDual-Size-Frequency: priority = L + freq/size, where L
	// is an aging term set to the priority of the last eviction.
	GDSF
)

// String returns the conventional name of the policy.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case LFU:
		return "LFU"
	case SIZE:
		return "SIZE"
	case GDSF:
		return "GDSF"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy converts a policy name (case-sensitive, as produced by
// Policy.String) back to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "LRU":
		return LRU, nil
	case "FIFO":
		return FIFO, nil
	case "LFU":
		return LFU, nil
	case "SIZE":
		return SIZE, nil
	case "GDSF":
		return GDSF, nil
	}
	return 0, fmt.Errorf("cache: unknown policy %q", s)
}

// EvictFunc observes capacity evictions. It must not call back into the
// cache.
type EvictFunc func(Doc)

// Options configures a TwoTier.
type Options struct {
	// OnEvict, if non-nil, is invoked for every document evicted to make
	// room (not for Remove or for replaced versions of the same key).
	OnEvict EvictFunc

	// OnDemote, if non-nil, observes memory-tier demotions: the document
	// leaves the memory portion but stays resident overall. The live proxy
	// uses it to spill bodies to the disk store. Like OnEvict, it must not
	// call back into the cache.
	OnDemote EvictFunc
}

// ErrCapacity is returned for a negative capacity, or a memory tier larger
// than its cache.
var ErrCapacity = errors.New("cache: capacity must be >= 0")
