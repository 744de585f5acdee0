package index

import (
	"sort"
	"sync"

	"baps/internal/intern"
)

// DefaultShards is the shard count NewSharded uses when given n <= 0.
const DefaultShards = 16

// Sharded is the live proxy's lock-striped browser directory, and the one
// type in this package that is safe for concurrent use: document state is
// split across n Index shards selected by document ID, each behind its own
// RWMutex, so request goroutines touching different documents proceed
// without contending on a single directory lock. Client-level state (served
// counters, quarantine flags) lives in one clientTable shared by every shard
// and read without a lock (see clientTable), keeping quarantine and
// least-loaded selection globally consistent; per-client entry counts are
// each shard's own and summed here.
//
// The method surface mirrors Index; per-document operations cost one shard
// lock, client-level operations touch only the shared table, and whole-index
// operations (PruneExpired, DropClient, ResyncClient, Len) visit each shard
// in turn without a global lock.
type Sharded struct {
	ct     *clientTable
	shards []*shard
}

// shard is one Index and the lock every access to it takes.
type shard struct {
	mu  sync.RWMutex
	idx Index
}

// NewSharded creates an empty sharded index with n shards (DefaultShards
// when n <= 0).
func NewSharded(strategy Strategy, n int) *Sharded {
	if n <= 0 {
		n = DefaultShards
	}
	s := &Sharded{ct: newClientTable(), shards: make([]*shard, n)}
	for i := range s.shards {
		s.shards[i] = &shard{idx: Index{strategy: strategy, ct: s.ct}}
	}
	return s
}

func (s *Sharded) shardOf(doc intern.ID) int { return int(uint32(doc) % uint32(len(s.shards))) }

func (s *Sharded) shard(doc intern.ID) *shard { return s.shards[s.shardOf(doc)] }

// Add records (or refreshes) an entry.
func (s *Sharded) Add(e Entry) {
	sh := s.shard(e.Doc)
	sh.mu.Lock()
	sh.idx.Add(e)
	sh.mu.Unlock()
}

// Remove deletes client's entry for doc, reporting whether it existed.
func (s *Sharded) Remove(client int, doc intern.ID) bool {
	sh := s.shard(doc)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.idx.Remove(client, doc)
}

// Lookup returns all recorded holders of doc, sorted by client id.
func (s *Sharded) Lookup(doc intern.ID) []Entry {
	sh := s.shard(doc)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.idx.Lookup(doc)
}

// Select picks a holder for doc other than requester and accounts one
// served transfer to it.
func (s *Sharded) Select(doc intern.ID, requester int) (Entry, bool) {
	sh := s.shard(doc)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.idx.Select(doc, requester)
}

// Ordered returns all holders of doc except requester in strategy order.
func (s *Sharded) Ordered(doc intern.ID, requester int) []Entry {
	return s.OrderedAt(doc, requester, 0)
}

// OrderedAt is Ordered with TTL filtering at time now.
func (s *Sharded) OrderedAt(doc intern.ID, requester int, now float64) []Entry {
	return s.AppendOrdered(nil, doc, requester, now)
}

// AppendOrdered appends doc's candidates to buf in strategy order.
func (s *Sharded) AppendOrdered(buf []Entry, doc intern.ID, requester int, now float64) []Entry {
	sh := s.shard(doc)
	sh.mu.RLock()
	buf = sh.idx.AppendOrdered(buf, doc, requester, now)
	sh.mu.RUnlock()
	return buf
}

// HasHolder reports whether any client outside quarantine holds doc,
// without materialising or ordering the holder list.
func (s *Sharded) HasHolder(doc intern.ID) bool {
	sh := s.shard(doc)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.idx.HasHolder(doc)
}

// OrderedQuarantined returns the quarantined holders of doc in strategy
// order.
func (s *Sharded) OrderedQuarantined(doc intern.ID, requester int) []Entry {
	sh := s.shard(doc)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.idx.OrderedQuarantined(doc, requester)
}

// heldBy sums client's entry counts over the shards.
func (s *Sharded) heldBy(client int) int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.idx.heldBy(client)
		sh.mu.RUnlock()
	}
	return n
}

// Quarantine shelves every entry of client across all shards in one step,
// returning the number of entries shelved.
func (s *Sharded) Quarantine(client int) int {
	s.ct.setQuarantined(client, true)
	return s.heldBy(client)
}

// Unquarantine re-admits client's entries, returning how many became
// visible again.
func (s *Sharded) Unquarantine(client int) int {
	s.ct.setQuarantined(client, false)
	return s.heldBy(client)
}

// Quarantined reports whether client is currently quarantined.
func (s *Sharded) Quarantined(client int) bool { return s.ct.quarantined(client) }

// QuarantinedEntries reports the total number of shelved entries.
func (s *Sharded) QuarantinedEntries() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.idx.QuarantinedEntries()
		sh.mu.RUnlock()
	}
	return n
}

// PruneExpired removes every expired entry across all shards.
func (s *Sharded) PruneExpired(now float64) int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.idx.PruneExpired(now)
		sh.mu.Unlock()
	}
	return n
}

// AccountServe records that client served one peer transfer.
func (s *Sharded) AccountServe(client int) { s.ct.accountServe(client) }

// Served reports how many peer transfers client has been selected for.
func (s *Sharded) Served(client int) int64 { return s.ct.served(client) }

// Has reports whether client is recorded as holding doc.
func (s *Sharded) Has(client int, doc intern.ID) bool {
	_, ok := s.Get(client, doc)
	return ok
}

// Get returns client's entry for doc.
func (s *Sharded) Get(client int, doc intern.ID) (Entry, bool) {
	sh := s.shard(doc)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.idx.Get(client, doc)
}

// ClientDocs returns a copy of client's directory, sorted by document ID.
func (s *Sharded) ClientDocs(client int) []Entry {
	var out []Entry
	for _, sh := range s.shards {
		sh.mu.RLock()
		out = append(out, sh.idx.ClientDocs(client)...)
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Doc < out[j].Doc })
	return out
}

// ForEachClientDoc calls fn for every document client holds, shard by
// shard. Each shard's lock is held read-side while it is walked; fn must be
// cheap and must not call back into the index.
func (s *Sharded) ForEachClientDoc(client int, fn func(doc intern.ID)) {
	for _, sh := range s.shards {
		sh.mu.RLock()
		sh.idx.ForEachClientDoc(client, fn)
		sh.mu.RUnlock()
	}
}

// DropClient removes every entry for a departed client across all shards.
func (s *Sharded) DropClient(client int) int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.idx.dropEntries(client)
		sh.mu.Unlock()
	}
	s.ct.drop(client)
	return n
}

// ResyncClient atomically-per-shard replaces client's directory with
// entries (the §2 periodic full update). Entries land in their document's
// shard; a concurrent reader may observe the resync mid-flight on other
// shards, matching the live system's message-at-a-time semantics.
func (s *Sharded) ResyncClient(client int, entries []Entry) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.idx.dropEntries(client)
		sh.mu.Unlock()
	}
	for _, e := range entries {
		e.Client = client
		s.Add(e)
	}
}

// Len reports the total number of entries.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.idx.Len()
		sh.mu.RUnlock()
	}
	return n
}

// ForEachDoc calls fn for every document with at least one recorded holder,
// shard by shard. Each shard's lock is held read-side while it is walked;
// fn must be cheap and must not call back into the index.
func (s *Sharded) ForEachDoc(fn func(doc intern.ID)) {
	for _, sh := range s.shards {
		sh.mu.RLock()
		sh.idx.ForEachDoc(fn)
		sh.mu.RUnlock()
	}
}

// URLCount reports the number of distinct documents currently indexed.
func (s *Sharded) URLCount() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.idx.URLCount()
		sh.mu.RUnlock()
	}
	return n
}
