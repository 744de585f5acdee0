package proxy

import (
	"time"

	"baps/internal/cache"
)

// docState says where a document's body lives. s.cache, the replacement-
// policy accountant, holds a key exactly when its record is resident (any
// state but docMetaOnly), and a resident body has exactly one home.
type docState uint8

const (
	// docMetaOnly: not resident; only meta is kept. Peer serves are still
	// checked against its digest (fetchFromPeer), which is why a record
	// outlives the eviction of its body.
	docMetaOnly docState = iota
	// docMemory: resident, body in RAM (the only resident state without a
	// disk tier).
	docMemory
	// docStaged: demoted out of the memory tier; the body waits in RAM for
	// the spill worker to land it in s.ds.
	docStaged
	// docDisk: resident, body only in s.ds.
	docDisk
)

// docRecord is everything the proxy keeps about one URL: the two things the
// paper's proxy holds per document — the cached copy (§2) and the digest peer
// serves are checked against (§6.1) — plus the disk tier's bookkeeping.
// Records live in s.docs under s.mu and change only through the transitions
// below; s.ds is never called with s.mu held.
//
//	transition   from             to         where
//	store        any              memory     storeDocLocked (meta-only if the cache refuses the body)
//	hit          memory, staged   memory     touchLocked: a staged body promotes straight back
//	demote       memory           disk       drainSpillsLocked: write-behind already made it durable
//	             memory           staged     drainSpillsLocked: admitted (hits >= spillMinHits), spill queued
//	             memory           meta-only  drainSpillsLocked: one-hit wonder or full spill queue, shed
//	spill done   staged           disk       spillDoneLocked (write-behind: memory stays memory, now durable)
//	spill failed staged           meta-only  spillDoneLocked
//	stream       disk             disk       serveLocal: first post-spill access counts a hit, nothing moves
//	promote      disk             memory     promoteLocked: second post-spill access
//	lost         disk             meta-only  dropLostLocal: disk copy unreadable or swept by retention
//	evict        any resident     meta-only  onEvict: capacity eviction by s.cache
//	purge        any              (freed)    purgeStale: the only place a record, and so meta, is freed
//	restore      (none)           disk       restoreDocLocked: journal replay at startup
type docRecord struct {
	meta  docMeta
	body  []byte // held in docMemory and docStaged only
	state docState
	// durable: s.ds holds the body of this meta.version.
	durable bool
	// hits counts accesses since the store, or since the last demotion, for
	// spill admission and read-back promotion (disk tier only).
	hits int
}

// residentLocked returns url's record if the proxy holds its body.
func (s *Server) residentLocked(url string) *docRecord {
	if r := s.docs[url]; r != nil && r.state != docMetaOnly {
		return r
	}
	return nil
}

// storeDocLocked makes body the resident copy of url and reports whether it
// is an observed origin-side modification (a newer version than recorded).
func (s *Server) storeDocLocked(url string, body []byte, meta docMeta) (modified bool) {
	r := s.docs[url]
	if r == nil {
		r = &docRecord{}
		s.docs[url] = r
	} else {
		modified = meta.version > r.meta.version
	}
	r.meta, r.durable = meta, false // any disk copy is now stale
	if _, admitted := s.cache.Put(cache.Doc{Key: url, Size: int64(len(body)), Version: meta.version}); admitted {
		r.body, r.state = body, docMemory
		if s.ds != nil {
			r.hits++ // the storing fetch is the document's first access
		}
	} else if r.state != docMetaOnly {
		// Too large to cache: the older copy must not be served under the
		// new meta.
		s.shedLocked(url, r)
	}
	s.drainSpillsLocked()
	return modified
}

// touchLocked books a hit on a body held in RAM. A staged body promotes
// straight back to the memory tier; its queued spill finds nothing staged
// and skips.
func (s *Server) touchLocked(url string, r *docRecord) {
	r.state = docMemory
	if s.ds != nil {
		r.hits++
	}
	s.cache.GetTier(url)
	s.drainSpillsLocked()
}

// onDemote observes memory-tier demotions (called by the cache under s.mu;
// it must not call back into the cache, so the keys are parked for
// drainSpillsLocked).
func (s *Server) onDemote(d cache.Doc) {
	s.demoted = append(s.demoted, d.Key)
}

// drainSpillsLocked disposes of the demotions the last cache call produced.
// Caller holds s.mu, outside any cache call.
func (s *Server) drainSpillsLocked() {
	for _, key := range s.demoted {
		r := s.docs[key]
		if r == nil || r.state != docMemory {
			continue // evicted by the same cache call
		}
		admitted := r.hits >= spillMinHits
		// Post-spill accesses count from zero again: the first disk hit
		// streams, the second faults the body back into memory.
		r.hits = 0
		switch {
		case r.durable:
			r.body, r.state = nil, docDisk
		case !admitted:
			s.shedLocked(key, r)
			s.m.spillSkipped.Inc()
		default:
			r.state = docStaged
			select {
			case s.spillq <- spillOp{key: key, from: docStaged}:
			default:
				// Spill queue saturated: shed instead of stalling the request.
				s.shedLocked(key, r)
				s.m.spillDropped.Inc()
			}
		}
	}
	s.demoted = s.demoted[:0]
}

// spillDoneLocked books the outcome of a disk write of url at version.
func (s *Server) spillDoneLocked(url string, version int64, err error) {
	r := s.residentLocked(url)
	if r == nil {
		return
	}
	switch {
	case err != nil:
		if r.state == docStaged {
			// The body is about to be gone from every tier.
			s.shedLocked(url, r)
		}
	case r.meta.version == version:
		// The disk copy matches the live document only if no newer version
		// was stored while the write was in flight.
		r.durable = true
		if r.state == docStaged {
			r.body, r.state = nil, docDisk
		}
	}
}

// promoteLocked faults a body read back from disk into the memory tier,
// unless the record moved on while s.ds was being read.
func (s *Server) promoteLocked(url string, body []byte, version int64) {
	if r := s.docs[url]; r != nil && r.state == docDisk && r.meta.version == version {
		r.body, r.state, r.durable = body, docMemory, true // the promoted body IS the disk copy
		s.cache.GetTier(url)
		s.drainSpillsLocked()
	}
}

// restoreDocLocked re-seats one journaled document: the body stays on disk
// and faults back in on access.
func (s *Server) restoreDocLocked(key string, meta docMeta) {
	r := &docRecord{meta: meta}
	s.docs[key] = r
	if _, admitted := s.cache.Seed(cache.Doc{Key: key, Size: meta.size, Version: meta.version}); admitted {
		r.state, r.durable = docDisk, true
	}
}

// confirmFreshLocked restarts url's revalidation clock after a 304 for
// version.
func (s *Server) confirmFreshLocked(url string, version int64) {
	if r := s.docs[url]; r != nil && r.meta.version == version {
		r.meta.checkedAt = time.Now()
	}
}

// shedLocked drops a resident record to meta-only (cache.Remove fires no
// eviction callback).
func (s *Server) shedLocked(url string, r *docRecord) {
	s.cache.Remove(url)
	*r = docRecord{meta: r.meta}
}

// onEvict is s.cache's capacity-eviction callback: the body and the disk
// copy go, meta stays.
func (s *Server) onEvict(d cache.Doc) {
	if r := s.docs[d.Key]; r != nil {
		*r = docRecord{meta: r.meta}
	}
	s.queueDiskDelete(d.Key)
}

// queueDiskDelete asks the spill worker to drop key's disk copy.
// Best-effort: a full queue leaves the orphan to the retention sweep.
func (s *Server) queueDiskDelete(key string) {
	if s.ds == nil {
		return
	}
	select {
	case s.spillq <- spillOp{key: key, del: true}:
	default:
	}
}
