package index

import (
	"sync"
	"sync/atomic"
)

// clientTable holds the client-level state of the browser index: the served
// transfer counts of the least-loaded strategy. The counts are client-level,
// not document-level, so a Sharded index shares one table across all its
// shards — least-loaded selection stays globally consistent — while a plain
// Index owns its own. Per-client entry counts are not here: each Index keeps
// its own, and Sharded sums them. Nor is liveness: a holder's quarantine is
// its circuit breaker in the live proxy, never a flag here.
//
// Shards read and update the table concurrently, each under only its own
// shard lock, so the table takes no lock on those paths: the state lives in
// fixed-size chunks that never move once allocated, and each element is an
// atomic. Growth to a client past the last chunk takes mu and publishes a
// longer chunk directory; a reader still holding the old directory reaches
// the same chunks.
type clientTable struct {
	mu  sync.Mutex // serializes growth
	dir atomic.Pointer[[]*clientChunk]
}

const clientChunkBits = 8 // 256 clients per chunk

type clientChunk [1 << clientChunkBits]atomic.Int64 // served counts

func newClientTable() *clientTable { return &clientTable{} }

// get returns client's served count, or nil when the table has never grown
// to it.
func (ct *clientTable) get(client int) *atomic.Int64 {
	d := ct.dir.Load()
	if d == nil || client < 0 || client>>clientChunkBits >= len(*d) {
		return nil
	}
	return &(*d)[client>>clientChunkBits][client&(1<<clientChunkBits-1)]
}

// at returns client's served count (client >= 0), growing the table to
// cover it.
func (ct *clientTable) at(client int) *atomic.Int64 {
	if s := ct.get(client); s != nil {
		return s
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	var chunks []*clientChunk
	if d := ct.dir.Load(); d != nil {
		chunks = *d
	}
	if n := client>>clientChunkBits + 1; n > len(chunks) {
		grown := make([]*clientChunk, n)
		copy(grown, chunks)
		for i := len(chunks); i < n; i++ {
			grown[i] = new(clientChunk)
		}
		ct.dir.Store(&grown)
	}
	return ct.get(client)
}

func (ct *clientTable) accountServe(client int) {
	if client >= 0 {
		ct.at(client).Add(1)
	}
}

func (ct *clientTable) served(client int) int64 {
	if s := ct.get(client); s != nil {
		return s.Load()
	}
	return 0
}

// drop zeroes a departed client's served count.
func (ct *clientTable) drop(client int) {
	if s := ct.get(client); s != nil {
		s.Store(0)
	}
}

// reset zeroes every client's served count in place, keeping the chunks.
func (ct *clientTable) reset() {
	if d := ct.dir.Load(); d != nil {
		for _, c := range *d {
			for i := range c {
				c[i].Store(0)
			}
		}
	}
}
