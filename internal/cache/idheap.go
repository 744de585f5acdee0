package cache

import (
	"sort"

	"baps/internal/intern"
)

// idHeapCache implements the priority-ordered policies (LFU, SIZE, GDSF)
// with a hand-rolled binary min-heap of int32 entry indices over slice-backed
// entry storage. The victim is the entry of least (priority, last-reference
// sequence); the sift order replicates container/heap's.
type idHeapCache struct {
	policy   Policy
	capacity int64
	used     int64
	onEvict  IDEvictFunc
	mem      *memLRU // the IDTwoTier memory tier over ents (handle = slot value); nil standalone

	slot    []int32       // docID -> entry index + 1; 0 when absent
	ents    []idHeapEntry // entry storage; index stable while resident
	free    []int32       // recycled entry indices
	pq      []int32       // heap of entry indices; root is the next victim
	seq     uint64        // monotonic reference clock for tie-breaking
	inflate float64       // GDSF aging term L
	evBuf   []IDDoc       // reused eviction buffer returned by Put
}

type idHeapEntry struct {
	doc  IDDoc
	freq int64
	pri  float64 // eviction priority; smaller evicts first
	seq  uint64  // last-reference sequence; older evicts first on ties
	idx  int32   // position in pq
}

func newIDHeapCache(policy Policy, capacity int64, o IDOptions, mem *memLRU) *idHeapCache {
	return &idHeapCache{
		policy:   policy,
		capacity: capacity,
		onEvict:  o.OnEvict,
		mem:      mem,
	}
}

func (c *idHeapCache) lookup(id intern.ID) int32 {
	if id < 0 || int(id) >= len(c.slot) {
		return 0
	}
	return c.slot[id]
}

// docAt returns the document under slot value s, a resident entry's handle.
func (c *idHeapCache) docAt(s int32) IDDoc { return c.ents[s-1].doc }

func (c *idHeapCache) ensureSlot(id intern.ID) {
	if int(id) < len(c.slot) {
		return
	}
	if int(id) < cap(c.slot) {
		c.slot = c.slot[:int(id)+1]
		return
	}
	grown := make([]int32, int(id)+1, max(2*cap(c.slot), int(id)+1))
	copy(grown, c.slot)
	c.slot = grown
}

// priority computes the eviction priority of an entry under the policy.
func (c *idHeapCache) priority(e *idHeapEntry) float64 {
	switch c.policy {
	case LFU:
		return float64(e.freq)
	case SIZE:
		// Largest documents evicted first: invert the size.
		return -float64(e.doc.Size)
	case GDSF:
		size := e.doc.Size
		if size < 1 {
			size = 1
		}
		return c.inflate + float64(e.freq)/float64(size)
	default:
		return 0
	}
}

// less orders heap positions i, j of pq: the next victim sorts first.
func (c *idHeapCache) less(i, j int) bool {
	a, b := &c.ents[c.pq[i]], &c.ents[c.pq[j]]
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq // older reference evicts first
}

func (c *idHeapCache) swap(i, j int) {
	c.pq[i], c.pq[j] = c.pq[j], c.pq[i]
	c.ents[c.pq[i]].idx = int32(i)
	c.ents[c.pq[j]].idx = int32(j)
}

// up and down replicate container/heap's sift procedures.
func (c *idHeapCache) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !c.less(j, i) {
			break
		}
		c.swap(i, j)
		j = i
	}
}

func (c *idHeapCache) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && c.less(j2, j1) {
			j = j2
		}
		if !c.less(j, i) {
			break
		}
		c.swap(i, j)
		i = j
	}
	return i > i0
}

func (c *idHeapCache) heapPush(ent int32) {
	c.ents[ent].idx = int32(len(c.pq))
	c.pq = append(c.pq, ent)
	c.up(len(c.pq) - 1)
}

func (c *idHeapCache) heapRemove(i int) {
	n := len(c.pq) - 1
	if n != i {
		c.swap(i, n)
		c.pq = c.pq[:n]
		if !c.down(i, n) {
			c.up(i)
		}
	} else {
		c.pq = c.pq[:n]
	}
}

func (c *idHeapCache) heapFix(i int) {
	if !c.down(i, len(c.pq)) {
		c.up(i)
	}
}

func (c *idHeapCache) touch(e *idHeapEntry) {
	e.freq++
	c.seq++
	e.seq = c.seq
	e.pri = c.priority(e)
	c.heapFix(int(e.idx))
}

func (c *idHeapCache) Get(id intern.ID) (IDDoc, bool) {
	doc, _, ok := c.getTier(id)
	return doc, ok
}

// getTier is Get, plus the memory-tier reference when the cache is an
// IDTwoTier's inner cache (standalone, every hit reports TierDisk).
func (c *idHeapCache) getTier(id intern.ID) (IDDoc, Tier, bool) {
	s := c.lookup(id)
	if s == 0 {
		return IDDoc{}, TierDisk, false
	}
	e := &c.ents[s-1]
	c.touch(e)
	tier := TierDisk
	if c.mem != nil {
		tier = c.mem.touch(s, e.doc.Size)
	}
	return e.doc, tier, true
}

func (c *idHeapCache) Peek(id intern.ID) (IDDoc, bool) {
	s := c.lookup(id)
	if s == 0 {
		return IDDoc{}, false
	}
	return c.ents[s-1].doc, true
}

func (c *idHeapCache) Put(doc IDDoc) ([]IDDoc, bool) {
	if doc.Size > c.capacity {
		return nil, false
	}
	if s := c.lookup(doc.ID); s != 0 {
		e := &c.ents[s-1]
		c.used += doc.Size - e.doc.Size
		e.doc = doc
		c.touch(e)
		return c.admitted(s, doc), true
	}
	c.ensureSlot(doc.ID)
	c.seq++
	var ent int32
	if ln := len(c.free); ln > 0 {
		ent = c.free[ln-1]
		c.free = c.free[:ln-1]
	} else {
		c.ents = append(c.ents, idHeapEntry{})
		ent = int32(len(c.ents) - 1)
	}
	e := &c.ents[ent]
	*e = idHeapEntry{doc: doc, freq: 1, seq: c.seq}
	e.pri = c.priority(e)
	c.slot[doc.ID] = ent + 1
	c.heapPush(ent)
	c.used += doc.Size
	return c.admitted(ent+1, doc), true
}

// admitted makes room for doc, now stored under slot value s, and then
// enters it in the memory tier, if there is one (evictions leave it first).
func (c *idHeapCache) admitted(s int32, doc IDDoc) []IDDoc {
	evicted := c.shrink(doc.ID)
	if c.mem != nil {
		c.mem.put(s, doc.Size)
	}
	return evicted
}

func (c *idHeapCache) shrink(keep intern.ID) []IDDoc {
	if c.used <= c.capacity {
		return nil
	}
	c.evBuf = c.evBuf[:0]
	for c.used > c.capacity && len(c.pq) > 0 {
		victim := c.pq[0]
		if c.ents[victim].doc.ID == keep {
			// The just-inserted ID fits by construction, so it can be at
			// the root only alongside other entries; evict the better of
			// its children instead.
			alt := c.betterChild(0)
			if alt < 0 {
				break
			}
			victim = c.pq[alt]
		}
		if c.policy == GDSF {
			c.inflate = c.ents[victim].pri
		}
		doc := c.ents[victim].doc
		c.removeEntry(victim)
		c.evBuf = append(c.evBuf, doc)
		if c.onEvict != nil {
			c.onEvict(doc)
		}
	}
	return c.evBuf
}

// betterChild returns the heap position of the lower-priority child of the
// node at position i, or -1.
func (c *idHeapCache) betterChild(i int) int {
	l, r := 2*i+1, 2*i+2
	switch {
	case l >= len(c.pq):
		return -1
	case r >= len(c.pq):
		return l
	case c.less(l, r):
		return l
	default:
		return r
	}
}

func (c *idHeapCache) removeEntry(ent int32) {
	if c.mem != nil {
		c.mem.remove(ent + 1)
	}
	e := &c.ents[ent]
	c.heapRemove(int(e.idx))
	c.slot[e.doc.ID] = 0
	c.used -= e.doc.Size
	*e = idHeapEntry{}
	c.free = append(c.free, ent)
}

func (c *idHeapCache) Remove(id intern.ID) bool {
	s := c.lookup(id)
	if s == 0 {
		return false
	}
	c.removeEntry(s - 1)
	return true
}

func (c *idHeapCache) Len() int        { return len(c.pq) }
func (c *idHeapCache) Used() int64     { return c.used }
func (c *idHeapCache) Capacity() int64 { return c.capacity }
func (c *idHeapCache) Policy() Policy  { return c.policy }

func (c *idHeapCache) IDs() []intern.ID {
	// (pri, seq) is a total order (seq values are unique), so eviction
	// order is exactly the sorted order — no need to simulate heap pops.
	type view struct {
		id  intern.ID
		pri float64
		seq uint64
	}
	views := make([]view, 0, len(c.pq))
	for _, ent := range c.pq {
		e := &c.ents[ent]
		views = append(views, view{e.doc.ID, e.pri, e.seq})
	}
	sort.Slice(views, func(i, j int) bool {
		if views[i].pri != views[j].pri {
			return views[i].pri < views[j].pri
		}
		return views[i].seq < views[j].seq
	})
	ids := make([]intern.ID, len(views))
	for i, v := range views {
		ids[i] = v.id
	}
	return ids
}

// Reset empties the cache in place and adopts a new capacity, retaining the
// slot/entry/heap storage for reuse.
func (c *idHeapCache) Reset(capacity int64) {
	for i := range c.slot {
		c.slot[i] = 0
	}
	c.ents = c.ents[:0]
	c.free = c.free[:0]
	c.pq = c.pq[:0]
	c.used = 0
	c.seq = 0
	c.inflate = 0
	c.capacity = capacity
}
