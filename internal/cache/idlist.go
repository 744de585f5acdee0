package cache

import "baps/internal/intern"

// idListCache implements LRU and FIFO over slice-backed storage: an intrusive
// doubly-linked list threaded through a nodes slice, with a dense docID →
// node-index table instead of a map. Steady-state Get/Put/Remove perform no
// allocation and no string hashing. The list runs from the eviction victim
// (front) to the most protected entry (back).
type idListCache struct {
	capacity int64
	used     int64
	promote  bool // true for LRU: Get moves to back; false for FIFO
	onEvict  IDEvictFunc
	mem      *memLRU // the IDTwoTier memory tier over nodes; nil standalone

	// slot[doc] is the node index for doc, or 0 when not resident (node 0
	// is the sentinel, never a real entry). The slice grows to the largest
	// doc ID seen. In sparse mode slotMap replaces it: memory scales with
	// resident documents instead of the ID space, which is what lets 10^6
	// browser caches coexist over a multi-million document ID space.
	sparse  bool
	slot    []int32
	slotMap docSlot
	nodes   []idListNode // nodes[0] is the sentinel of the circular list
	free    []int32      // recycled node indices
	count   int
	evBuf   []IDDoc // reused eviction buffer returned by Put
}

type idListNode struct {
	doc        IDDoc
	prev, next int32
}

func newIDListCache(capacity int64, promote bool, o IDOptions, mem *memLRU) *idListCache {
	c := &idListCache{
		capacity: capacity,
		promote:  promote,
		onEvict:  o.OnEvict,
		mem:      mem,
		sparse:   o.Sparse,
	}
	if o.Sparse {
		// Million-instance deployments: no speculative node preallocation.
		c.nodes = make([]idListNode, 1, 1)
	} else {
		c.nodes = make([]idListNode, 1, 64)
	}
	return c
}

func (c *idListCache) lookup(id intern.ID) int32 {
	if c.sparse {
		if id < 0 {
			return 0
		}
		return c.slotMap.get(id)
	}
	if id < 0 || int(id) >= len(c.slot) {
		return 0
	}
	return c.slot[id]
}

// docAt returns the document at node n, a resident entry's handle.
func (c *idListCache) docAt(n int32) IDDoc { return c.nodes[n].doc }

// setSlot records the node index for a resident document.
func (c *idListCache) setSlot(id intern.ID, n int32) {
	if c.sparse {
		c.slotMap.set(id, n)
		return
	}
	c.ensureSlot(id)
	c.slot[id] = n
}

// clearSlot forgets a document's node index.
func (c *idListCache) clearSlot(id intern.ID) {
	if c.sparse {
		c.slotMap.del(id)
		return
	}
	c.slot[id] = 0
}

func (c *idListCache) ensureSlot(id intern.ID) {
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

func (c *idListCache) unlink(n int32) {
	nd := &c.nodes[n]
	c.nodes[nd.prev].next = nd.next
	c.nodes[nd.next].prev = nd.prev
}

// pushBack places n in the most protected position.
func (c *idListCache) pushBack(n int32) {
	tail := c.nodes[0].prev
	c.nodes[tail].next = n
	c.nodes[n].prev = tail
	c.nodes[n].next = 0
	c.nodes[0].prev = n
}

func (c *idListCache) Get(id intern.ID) (IDDoc, bool) {
	doc, _, ok := c.getTier(id)
	return doc, ok
}

// getTier is Get, plus the memory-tier reference when the cache is an
// IDTwoTier's inner cache (standalone, every hit reports TierDisk).
func (c *idListCache) getTier(id intern.ID) (IDDoc, Tier, bool) {
	n := c.lookup(id)
	if n == 0 {
		return IDDoc{}, TierDisk, false
	}
	if c.promote {
		c.unlink(n)
		c.pushBack(n)
	}
	doc := c.nodes[n].doc
	tier := TierDisk
	if c.mem != nil {
		tier = c.mem.touch(n, doc.Size)
	}
	return doc, tier, true
}

func (c *idListCache) Peek(id intern.ID) (IDDoc, bool) {
	n := c.lookup(id)
	if n == 0 {
		return IDDoc{}, false
	}
	return c.nodes[n].doc, true
}

func (c *idListCache) Put(doc IDDoc) ([]IDDoc, bool) {
	if doc.Size > c.capacity {
		// Too large to ever fit; do not disturb resident documents.
		return nil, false
	}
	if n := c.lookup(doc.ID); n != 0 {
		// Replacement of an existing ID (e.g. a new document version):
		// update in place, then make room for any growth.
		c.used += doc.Size - c.nodes[n].doc.Size
		c.nodes[n].doc = doc
		if c.promote {
			c.unlink(n)
			c.pushBack(n)
		}
		return c.admitted(n, doc), true
	}
	var n int32
	if ln := len(c.free); ln > 0 {
		n = c.free[ln-1]
		c.free = c.free[:ln-1]
		c.nodes[n].doc = doc
	} else {
		c.nodes = append(c.nodes, idListNode{doc: doc})
		n = int32(len(c.nodes) - 1)
	}
	c.setSlot(doc.ID, n)
	c.pushBack(n)
	c.used += doc.Size
	c.count++
	return c.admitted(n, doc), true
}

// admitted makes room for doc, now stored at node n, and then enters it in
// the memory tier, if there is one (evictions leave it first).
func (c *idListCache) admitted(n int32, doc IDDoc) []IDDoc {
	evicted := c.shrink(doc.ID)
	if c.mem != nil {
		c.mem.put(n, doc.Size)
	}
	return evicted
}

// shrink evicts from the front until used <= capacity, never evicting keep.
// The returned slice aliases the cache's reusable eviction buffer.
func (c *idListCache) shrink(keep intern.ID) []IDDoc {
	if c.used <= c.capacity {
		return nil
	}
	c.evBuf = c.evBuf[:0]
	for c.used > c.capacity {
		victim := c.nodes[0].next
		if victim == 0 {
			break // nothing left to evict (cannot happen when keep fits)
		}
		if c.nodes[victim].doc.ID == keep {
			// keep is the only entry left but still over capacity;
			// guarded against by the size check in Put.
			victim = c.nodes[victim].next
			if victim == 0 {
				break
			}
		}
		doc := c.nodes[victim].doc
		c.removeNode(victim)
		c.evBuf = append(c.evBuf, doc)
		if c.onEvict != nil {
			c.onEvict(doc)
		}
	}
	return c.evBuf
}

func (c *idListCache) removeNode(n int32) {
	if c.mem != nil {
		c.mem.remove(n)
	}
	c.unlink(n)
	c.clearSlot(c.nodes[n].doc.ID)
	c.used -= c.nodes[n].doc.Size
	c.nodes[n] = idListNode{}
	c.free = append(c.free, n)
	c.count--
}

func (c *idListCache) Remove(id intern.ID) bool {
	n := c.lookup(id)
	if n == 0 {
		return false
	}
	c.removeNode(n)
	return true
}

func (c *idListCache) Len() int        { return c.count }
func (c *idListCache) Used() int64     { return c.used }
func (c *idListCache) Capacity() int64 { return c.capacity }

func (c *idListCache) Policy() Policy {
	if c.promote {
		return LRU
	}
	return FIFO
}

func (c *idListCache) IDs() []intern.ID {
	ids := make([]intern.ID, 0, c.count)
	for n := c.nodes[0].next; n != 0; n = c.nodes[n].next {
		ids = append(ids, c.nodes[n].doc.ID)
	}
	return ids
}

// Reset empties the cache in place and adopts a new capacity, retaining
// slot/node storage so a reused cache performs no growth allocations.
func (c *idListCache) Reset(capacity int64) {
	for i := range c.slot {
		c.slot[i] = 0
	}
	c.slotMap.reset()
	c.nodes = c.nodes[:1]
	c.nodes[0] = idListNode{}
	c.free = c.free[:0]
	c.used = 0
	c.count = 0
	c.capacity = capacity
}
