// Package docstore is the proxy's document store: one record per URL, behind
// one lock, holding the two things the paper's proxy keeps per document — the
// cached copy (§2) and the digest peer serves are checked against (§6.1) —
// plus the disk tier's bookkeeping. The store also owns the cache.TwoTier
// accountant over the resident records, the spill queue's contents and the
// disk store. Other code changes a record only
// through the transitions below. The cache holds a key exactly when its
// record is resident (any state but MetaOnly), a resident body has exactly
// one home, and the disk store is never called with the lock held.
//
// An acquisition stores no digest. The first consumer that needs one — a
// serve to a registered client, a disk spill (so every
// journaled copy has one) or a peer serve that passed the watermark check —
// derives it from the body in hand and records it for that version, once
// however many ask at the same time.
//
//	transition   from             to         method
//	store        any              memory     Store (meta-only if the cache refuses the body)
//	hit          memory, staged   memory     Hit: a staged body promotes straight back
//	demote       memory           disk       drain: write-behind already made it durable
//	             memory           staged     drain: admitted (hits >= SpillMinHits), spill queued
//	             memory           meta-only  drain: one-hit wonder or full spill queue, shed
//	spill done   staged           disk       Spill (write-behind: memory stays memory, now durable)
//	spill failed staged           meta-only  Spill
//	stream       disk             disk       Hit: first post-spill access counts a hit, nothing moves
//	promote      disk             memory     Promote: second post-spill access
//	lost         disk             meta-only  Lost: disk copy unreadable or swept by retention
//	evict        any resident     meta-only  onEvict: capacity eviction by the cache
//	purge        any              (freed)    Purge: the only place a record, and so meta, is freed
//	restore      (none)           disk       Restore: journal replay at startup
//	digest       any              (same)     Digest, RecordDigest: first digest of this version
//	confirm      any              (same)     ConfirmFresh: a 304 restarts the revalidation clock
//
// Two scans read the whole table: Due nominates revalidations and
// WriteBehind the bodies to make durable.
package docstore

import (
	"context"
	"crypto/md5"
	"fmt"
	"strconv"
	"sync"
	"time"

	"baps/internal/cache"
	"baps/internal/diskstore"
	"baps/internal/flight"
	"baps/internal/obs"
)

// State says where a document's body lives.
type State uint8

const (
	MetaOnly State = iota // not resident; peer serves are still checked against its digest
	Memory                // body in RAM (the only resident state without a disk tier)
	Staged                // demoted; the body waits in RAM for the spill worker
	Disk                  // body only in the disk store
)

// SpillMinHits is spill admission: a demoted body accessed fewer times
// (counting the storing fetch) is shed instead of spilled. A spilled body
// streams on its first access and promotes on the second.
const SpillMinHits = 2

// Meta is what the proxy knows about one version of a document: its MD5
// digest (nil until derived) and the revalidation bookkeeping — when the body
// was acquired, when a conditional GET last confirmed it, and the origin's
// Last-Modified text.
type Meta struct {
	Version, Size       int64
	Digest              []byte
	StoredAt, CheckedAt time.Time
	LastMod             string
}

// record is everything the store keeps about one URL. durable: the disk
// store holds this version. hits counts accesses since the store or the last
// demotion, for spill admission and read-back promotion (disk tier only).
type record struct {
	meta    Meta
	body    []byte // held in Memory and Staged only
	state   State
	durable bool
	hits    int
}

// Op is one spill-queue entry: drop Key's disk copy (Del), or write its body
// if the record is still in state From (Staged: a demotion spill; Memory:
// write-behind, the body stays resident).
type Op struct {
	Key  string
	Del  bool
	From State
}

// Config parameterizes New. A non-empty Dir opens the disk tier there under
// Disk. The store fills Queue; its owner's spill worker hands every op it
// takes off to Spill. SpillSkipped counts demotions shed by admission,
// SpillDropped spills shed by backpressure or disk errors (both required
// with a Dir).
type Config struct {
	Policy                     cache.Policy
	Capacity, MemCapacity      int64
	Dir                        string
	Disk                       diskstore.Config
	Queue                      chan Op
	SpillSkipped, SpillDropped *obs.Counter
}

// Store is the document store. Every method is safe for concurrent use.
type Store struct {
	cfg     Config
	ds      *diskstore.Store
	digests flight.Group[[]byte]
	sum     func([]byte) [md5.Size]byte // md5.Sum; tests count the derivations

	mu      sync.Mutex
	recs    map[string]*record
	cache   *cache.TwoTier
	demoted []string
}

// New builds a store, opening the disk tier when c.Dir is set.
func New(c Config) (*Store, error) {
	s := &Store{cfg: c, sum: md5.Sum, recs: make(map[string]*record)}
	opts := cache.Options{OnEvict: s.onEvict}
	if c.Dir != "" {
		opts.OnDemote = s.onDemote
	}
	tc, err := cache.NewTwoTier(c.Policy, c.Capacity, c.MemCapacity, opts)
	if err != nil {
		return nil, err
	}
	s.cache = tc
	if c.Dir != "" {
		c.Disk.OnEvict = s.Lost
		if s.ds, err = diskstore.Open(c.Dir, c.Disk); err != nil {
			return nil, fmt.Errorf("disk tier: %w", err)
		}
	}
	return s, nil
}

// Disk is the disk store (nil without a disk tier). The owner reads bodies
// and keeps its state blob there; only the store writes documents.
func (s *Store) Disk() *diskstore.Store { return s.ds }

// Store makes body (handed over, never written again) the resident copy of
// url and reports whether it is a newer version than recorded.
func (s *Store) Store(url string, body []byte, m Meta) (modified bool) {
	if m.StoredAt.IsZero() {
		m.StoredAt = time.Now()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.recs[url]
	if r == nil {
		r = &record{}
		s.recs[url] = r
	} else {
		modified = m.Version > r.meta.Version
	}
	r.meta, r.durable = m, false // any disk copy is now stale
	if _, admitted := s.cache.Put(cache.Doc{Key: url, Size: int64(len(body)), Version: m.Version}); admitted {
		r.body, r.state = body, Memory
		if s.ds != nil {
			r.hits++ // the storing fetch is the document's first access
		}
	} else if r.state != MetaOnly {
		// Too large to cache: the older copy must not be served under the
		// new meta.
		s.shed(url, r)
	}
	s.drain()
	return modified
}

// Hit books one request-path access of url and says where its body is:
// Memory hands it over, Disk leaves it there (promote: fault it back in, on
// the second access since it landed or to derive a missing digest), MetaOnly
// is a miss.
func (s *Store) Hit(url string, needDigest bool) (body []byte, m Meta, st State, promote bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.recs[url]
	if r == nil || r.state == MetaOnly {
		return nil, Meta{}, MetaOnly, false
	}
	if r.state == Disk {
		r.hits++
		return nil, r.meta, Disk, r.hits >= SpillMinHits || (needDigest && r.meta.Digest == nil)
	}
	r.state = Memory
	if s.ds != nil {
		r.hits++
	}
	s.cache.GetTier(url)
	s.drain()
	return r.body, r.meta, Memory, false
}

// Promote reads url's body back from disk into the memory tier, unless the
// record moved on meanwhile. A failed read is a lost copy.
func (s *Store) Promote(url string) ([]byte, error) {
	body, dm, err := s.ds.Get(url)
	if err != nil {
		s.Lost(url)
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.recs[url]; r != nil && r.state == Disk && r.meta.Version == dm.Version {
		r.body, r.state, r.durable = body, Memory, true // the promoted body IS the disk copy
		s.cache.GetTier(url)
		s.drain()
	}
	return body, nil
}

// Lost books the loss of url's disk copy (unreadable, or swept by retention):
// if that was the only copy, the document is no longer resident.
func (s *Store) Lost(url string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.recs[url]; r != nil {
		r.durable = false
		if r.state == Disk {
			s.shed(url, r)
		}
	}
}

// onDemote parks a memory-tier demotion for drain: it runs inside a cache
// call, which it must not re-enter.
func (s *Store) onDemote(d cache.Doc) {
	s.demoted = append(s.demoted, d.Key)
}

// drain disposes of the demotions the last cache call produced (s.mu held).
func (s *Store) drain() {
	for _, key := range s.demoted {
		r := s.recs[key]
		if r == nil || r.state != Memory {
			continue // evicted by the same cache call
		}
		admitted := r.hits >= SpillMinHits
		r.hits = 0 // post-spill accesses count afresh
		switch {
		case r.durable:
			r.body, r.state = nil, Disk
		case !admitted:
			s.shed(key, r)
			s.cfg.SpillSkipped.Inc()
		default:
			r.state = Staged
			select {
			case s.cfg.Queue <- Op{Key: key, From: Staged}:
			default:
				// Spill queue saturated: shed instead of stalling the request.
				s.shed(key, r)
				s.cfg.SpillDropped.Inc()
			}
		}
	}
	s.demoted = s.demoted[:0]
}

// Spill runs one op taken off the spill queue. It returns the error of a
// failed demotion spill, whose body is then gone from every tier.
func (s *Store) Spill(op Op) error {
	s.mu.Lock()
	r := s.recs[op.Key]
	if op.Del {
		// A record re-stored and made durable since the delete was queued
		// owns the disk copy now.
		keep := r != nil && r.durable
		s.mu.Unlock()
		if !keep {
			s.ds.Delete(op.Key)
		}
		return nil
	}
	if r == nil || r.state != op.From || r.durable {
		s.mu.Unlock()
		return nil // promoted back, re-stored, demoted or evicted while queued
	}
	// Bodies are never mutated in place (a store replaces the slice), so
	// the write can read this one without the lock.
	body, m := r.body, r.meta
	s.mu.Unlock()
	// Every journaled copy carries its digest: a restarted proxy re-derives
	// watermarks from the journal without reading a body.
	if m.Digest == nil {
		m.Digest = s.Digest(op.Key, m.Version, body)
	}
	err := s.ds.Put(op.Key, body, diskstore.Meta{Version: m.Version, Digest: m.Digest})
	s.mu.Lock()
	if r = s.recs[op.Key]; r != nil && r.state != MetaOnly {
		switch {
		case err != nil:
			if r.state == Staged {
				s.shed(op.Key, r)
			}
		case r.meta.Version == m.Version:
			// The disk copy matches the live document only if no newer
			// version was stored while the write was in flight.
			r.durable = true
			if r.state == Staged {
				r.body, r.state = nil, Disk
			}
		}
	}
	s.mu.Unlock()
	if err != nil && op.From == Staged {
		s.cfg.SpillDropped.Inc()
		return err
	}
	return nil
}

// Restore re-seats every journaled document on disk, coldest first so the
// LRU order is the journal's, and returns how many it read.
func (s *Store) Restore() int {
	entries := s.ds.Entries()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		r := &record{meta: Meta{Version: e.Meta.Version, Size: e.Meta.Size, Digest: e.Meta.Digest}}
		s.recs[e.Key] = r
		if _, admitted := s.cache.Seed(cache.Doc{Key: e.Key, Size: e.Meta.Size, Version: e.Meta.Version}); admitted {
			r.state, r.durable = Disk, true
		}
	}
	return len(entries)
}

// Digest returns the digest of body, url's document at version, recorded on
// url's record: concurrent callers share one derivation, later ones find it.
func (s *Store) Digest(url string, version int64, body []byte) []byte {
	d, _, _ := s.digests.Do(context.Background(), url+"\x00"+strconv.FormatInt(version, 10), func() ([]byte, error) {
		if _, m, _, _ := s.Peek(url); m.Version == version && m.Digest != nil {
			return m.Digest, nil
		}
		h := s.sum(body)
		s.RecordDigest(url, version, h[:])
		return h[:], nil
	})
	return d
}

// RecordDigest records digest as url's at version, unless the record moved
// on or already has one.
func (s *Store) RecordDigest(url string, version int64, digest []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.recs[url]; r != nil && r.meta.Version == version && r.meta.Digest == nil {
		r.meta.Digest = digest
	}
}

// ConfirmFresh restarts url's revalidation clock after a 304 for version.
func (s *Store) ConfirmFresh(url string, version int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.recs[url]; r != nil && r.meta.Version == version {
		r.meta.CheckedAt = time.Now()
	}
}

// Purge frees url's record, cache entry and disk copy unless the record is
// already at or past version, and reports whether it did.
func (s *Store) Purge(url string, version int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.recs[url]; r != nil && r.meta.Version >= version {
		return false
	}
	delete(s.recs, url)
	s.cache.Remove(url)
	s.queueDelete(url)
	return true
}

// shed drops a resident record to meta-only (cache.Remove fires no onEvict).
func (s *Store) shed(url string, r *record) {
	s.cache.Remove(url)
	*r = record{meta: r.meta}
}

// onEvict is the cache's capacity eviction: body and disk copy go, meta stays.
func (s *Store) onEvict(d cache.Doc) {
	if r := s.recs[d.Key]; r != nil {
		*r = record{meta: r.meta}
	}
	s.queueDelete(d.Key)
}

// queueDelete asks the spill worker to drop key's disk copy; a full queue
// leaves the orphan to the retention sweep.
func (s *Store) queueDelete(key string) {
	if s.ds == nil {
		return
	}
	select {
	case s.cfg.Queue <- Op{Key: key, Del: true}:
	default:
	}
}

// Peek reports url's record without booking an access: body (when in RAM),
// meta, state, and whether there is a record at all.
func (s *Store) Peek(url string) (body []byte, m Meta, st State, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.recs[url]; r != nil {
		return r.body, r.meta, r.state, true
	}
	return nil, Meta{}, MetaOnly, false
}

// Due nominates for revalidation up to max resident documents last acquired
// or confirmed fresh longer than age ago.
func (s *Store) Due(age time.Duration, max int) []string {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	due := make([]string, 0, 64)
	for url, r := range s.recs {
		if r.state == MetaOnly || now.Sub(r.meta.StoredAt) < age || now.Sub(r.meta.CheckedAt) < age {
			continue
		}
		if due = append(due, url); len(due) == max {
			break
		}
	}
	return due
}

// WriteBehind queues disk copies of up to max admitted memory-tier bodies
// whose version is not on disk; a full queue leaves the rest to the next call.
func (s *Store) WriteBehind(max int) {
	s.mu.Lock()
	var ops []Op
	for key, r := range s.recs {
		if r.state != Memory || r.durable || r.hits < SpillMinHits {
			continue
		}
		if ops = append(ops, Op{Key: key, From: Memory}); len(ops) >= max {
			break
		}
	}
	s.mu.Unlock()
	for _, op := range ops {
		select {
		case s.cfg.Queue <- op:
		default:
			return
		}
	}
}

// Size reports the resident documents and their bytes.
func (s *Store) Size() (int, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.Len(), s.cache.Used()
}

// Keys lists the cache's resident keys, least recently used first.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.Keys()
}

// View is a copy of one record, for tests and diagnostics.
type View struct {
	Meta    Meta
	Body    []byte
	State   State
	Durable bool
	Hits    int
}

// Views copies every record.
func (s *Store) Views() map[string]View {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]View, len(s.recs))
	for url, r := range s.recs {
		out[url] = View{r.meta, r.body, r.state, r.durable, r.hits}
	}
	return out
}
