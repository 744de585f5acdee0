package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"baps/internal/intern"
)

// Pool is the cache engine: a set of byte-bounded two-tier caches, its
// members, that share one replacement policy, one node arena and one
// (member, document) → node table. A standalone cache (the simulator's proxy
// and parent, TwoTier and everything built on it) is a one-member pool; the
// simulator keeps all of an organization's browsers as the members of one
// pool, so a population of browsers costs a fixed number of allocations and
// one small header per member rather than a separately allocated cache per
// browser.
//
// Every slice in a Pool is pointer-free: a member header holds its
// capacities, usage, policy state and list ends; a node holds one resident
// document, its place in its member's policy order and its place in its
// member's memory tier. Node 0 is never used, so 0 means "none" in every
// link.
//
// Each member behaves exactly as an independent cache of its own policy:
//
//   - LRU and FIFO order a member's documents on a list threaded through
//     the nodes, from the next victim (head) to the most protected (tail);
//     LRU moves a referenced document to the tail, FIFO never does.
//   - LFU, SIZE and GDSF order them by (priority, sequence of the last
//     reference) on a pairing heap threaded through a parallel slice; the
//     victim is the least pair. Sequences are unique within a member, so the
//     order is total and the victim does not depend on the heap's shape.
//     GDSF's aging term is the member's own.
//   - The memory tier (§4.2's memory portion) is an LRU list threaded
//     through the same nodes; see memPut.
//
// A Pool, like every cache in this package, is for a single goroutine.
type Pool struct {
	policy  Policy
	members []member
	nodes   []node
	heap    []heapNode // parallel to nodes for LFU, SIZE and GDSF; nil otherwise
	free    int32      // head of the free-node list, threaded through next
	slots   slotTable
	evBuf   []IDDoc // reused eviction buffer returned by Put

	// onEvict and onDemote are a standalone cache's observers
	// (IDOptions.OnEvict, observeDemotions); a pool of many members reads
	// its evictions from Put's result instead.
	onEvict  IDEvictFunc
	onDemote func(IDDoc)
}

// member is one cache's header.
type member struct {
	capacity, used       int64
	memCapacity, memUsed int64
	seq                  uint64  // heap policies: the reference clock
	aging                float64 // GDSF's L: the priority of the last victim
	count                int32
	head, tail           int32 // policy list (heap policies: residency only)
	memHead, memTail     int32 // memory tier, next demotion first
	root                 int32 // heap policies: the next victim
}

// node is one resident document. memSize is the memory-tier charge, kept
// apart from the document: re-storing a larger version that no longer fits
// in memory leaves the resident copy's place and charge untouched, exactly
// as a separate memory-portion cache would.
type node struct {
	doc              IDDoc
	prev, next       int32
	memPrev, memNext int32 // memPrev < 0: not in the memory tier
	memSize          int64
}

// heapNode is a node's place in its member's pairing heap: child is its
// first child, sibling the next child of its parent, and back the previous
// sibling, or the parent for a first child.
type heapNode struct {
	pri                  float64 // eviction priority; smaller evicts first
	seq                  uint64  // last-reference sequence; older evicts first on ties
	freq                 int64
	child, sibling, back int32
}

// NewPool builds a pool of n empty members of capacity 0 under policy; give
// each member its capacities with ResetTiers.
func NewPool(policy Policy, n int) (*Pool, error) {
	switch policy {
	case LRU, FIFO, LFU, SIZE, GDSF:
	default:
		return nil, fmt.Errorf("cache: unknown policy %v", policy)
	}
	if n < 1 || n > 1<<31-1 {
		return nil, fmt.Errorf("cache: pool of %d members", n)
	}
	p := &Pool{policy: policy, members: make([]member, n), nodes: make([]node, 1)}
	p.slots.byDoc = n == 1
	if p.heaped() {
		p.heap = make([]heapNode, 1)
	}
	return p, nil
}

// Member returns a view of member m as an IDTwoTier.
func (p *Pool) Member(m int) *IDTwoTier {
	_ = p.members[m] // a member the pool lacks panics here, not on first use
	return &IDTwoTier{p: p, m: int32(m)}
}

// heaped reports whether the policy orders by priority on the heap (LFU,
// SIZE, GDSF) rather than on the list (LRU, FIFO).
func (p *Pool) heaped() bool { return p.policy >= LFU }

// Len reports member m's resident documents.
func (p *Pool) Len(m int) int { return int(p.members[m].count) }

// GetTier looks up a document in member m, reporting the tier that served
// it; the document is referenced in the policy and promoted to the memory
// tier.
func (p *Pool) GetTier(m int, id intern.ID) (IDDoc, Tier, bool) {
	n := p.slots.get(int32(m), id)
	if n == 0 {
		return IDDoc{}, TierDisk, false
	}
	mb := &p.members[m]
	p.reference(mb, n)
	doc := p.nodes[n].doc
	tier := TierDisk
	if p.nodes[n].memPrev >= 0 {
		tier = TierMemory
	}
	p.memPut(mb, n, doc.Size)
	return doc, tier, true
}

// Peek looks up a document in member m without updating any state.
func (p *Pool) Peek(m int, id intern.ID) (IDDoc, bool) {
	n := p.slots.get(int32(m), id)
	if n == 0 {
		return IDDoc{}, false
	}
	return p.nodes[n].doc, true
}

// Put stores doc in member m, evicting as needed, and reports the evicted
// documents (never doc itself; valid until the next Put on any member) and
// whether doc was admitted. A document larger than the member is refused
// and nothing moves. An admitted document enters the memory tier.
func (p *Pool) Put(m int, doc IDDoc) ([]IDDoc, bool) { return p.put(m, doc, false) }

// put is Put; seed stores without a memory-tier charge (a body re-seated on
// disk), leaving any place the document already has there untouched.
func (p *Pool) put(m int, doc IDDoc, seed bool) ([]IDDoc, bool) {
	mb := &p.members[m]
	if doc.Size > mb.capacity {
		return nil, false
	}
	n := p.slots.get(int32(m), doc.ID)
	if n != 0 {
		// A new version of a resident document: update in place, then
		// make room for any growth.
		mb.used += doc.Size - p.nodes[n].doc.Size
		p.nodes[n].doc = doc
		p.reference(mb, n)
	} else {
		n = p.alloc(doc)
		p.slots.put(int32(m), doc.ID, n)
		p.pushBack(mb, n)
		if p.heaped() {
			mb.seq++
			p.heap[n] = heapNode{freq: 1, seq: mb.seq}
			p.heap[n].pri = p.priority(mb, n)
			mb.root = p.meld(mb.root, n)
		}
		mb.used += doc.Size
		mb.count++
	}
	evicted := p.shrink(m, mb, n)
	if !seed {
		p.memPut(mb, n, doc.Size)
	}
	return evicted, true
}

// Remove deletes a document from member m, reporting whether it was
// resident. It is an invalidation, not an eviction: no observer sees it.
func (p *Pool) Remove(m int, id intern.ID) bool {
	n := p.slots.get(int32(m), id)
	if n == 0 {
		return false
	}
	p.removeNode(int32(m), &p.members[m], n)
	return true
}

// ResetTiers empties member m in place and gives it new total and
// memory-tier capacities; allocated storage is kept for reuse.
func (p *Pool) ResetTiers(m int, capacity, memCapacity int64) {
	mb := &p.members[m]
	if len(p.members) == 1 {
		p.Reset()
	} else {
		for n := mb.head; n != 0; {
			next := p.nodes[n].next
			p.slots.del(int32(m), p.nodes[n].doc.ID)
			p.release(n)
			n = next
		}
	}
	*mb = member{capacity: capacity, memCapacity: memCapacity}
}

// Reset empties every member in place, keeping their capacities and the
// pool's storage.
func (p *Pool) Reset() {
	p.slots.clear()
	p.nodes = p.nodes[:1]
	if p.heap != nil {
		p.heap = p.heap[:1]
	}
	p.free = 0
	for i := range p.members {
		mb := &p.members[i]
		*mb = member{capacity: mb.capacity, memCapacity: mb.memCapacity}
	}
}

// reference books a reference to resident node n under the policy.
func (p *Pool) reference(mb *member, n int32) {
	switch p.policy {
	case LRU:
		if mb.tail != n {
			p.unlink(mb, n)
			p.pushBack(mb, n)
		}
	case FIFO:
	default:
		h := &p.heap[n]
		h.freq++
		mb.seq++
		h.seq = mb.seq
		h.pri = p.priority(mb, n)
		p.heapRemove(mb, n)
		mb.root = p.meld(mb.root, n)
	}
}

// priority computes node n's eviction priority under the policy.
func (p *Pool) priority(mb *member, n int32) float64 {
	switch p.policy {
	case LFU:
		return float64(p.heap[n].freq)
	case SIZE:
		// Largest documents evicted first: invert the size.
		return -float64(p.nodes[n].doc.Size)
	default: // GDSF
		return mb.aging + float64(p.heap[n].freq)/float64(max(p.nodes[n].doc.Size, 1))
	}
}

// shrink evicts from member m until it fits, never evicting keep, the node
// just stored (it fits by Put's size check). The returned slice aliases the
// pool's eviction buffer.
func (p *Pool) shrink(m int, mb *member, keep int32) []IDDoc {
	if mb.used <= mb.capacity {
		return nil
	}
	p.evBuf = p.evBuf[:0]
	detached := false
	for mb.used > mb.capacity {
		var victim int32
		if p.heaped() {
			if mb.root == keep {
				// Park keep outside the heap: the next victim is the
				// least of the others.
				p.heapRemove(mb, keep)
				detached = true
			}
			victim = mb.root
			if victim != 0 && p.policy == GDSF {
				mb.aging = p.heap[victim].pri
			}
		} else {
			victim = mb.head
			if victim == keep {
				victim = p.nodes[victim].next
			}
		}
		if victim == 0 {
			break
		}
		doc := p.nodes[victim].doc
		p.removeNode(int32(m), mb, victim)
		p.evBuf = append(p.evBuf, doc)
		if p.onEvict != nil {
			p.onEvict(doc)
		}
	}
	if detached {
		mb.root = p.meld(mb.root, keep)
	}
	return p.evBuf
}

// removeNode takes resident node n out of member m entirely.
func (p *Pool) removeNode(m int32, mb *member, n int32) {
	p.memRemove(mb, n)
	if p.heaped() {
		p.heapRemove(mb, n)
	}
	p.unlink(mb, n)
	doc := p.nodes[n].doc
	p.slots.del(m, doc.ID)
	mb.used -= doc.Size
	mb.count--
	p.release(n)
}

// alloc takes a node for doc, recycling a released one first.
func (p *Pool) alloc(doc IDDoc) int32 {
	n := p.free
	if n != 0 {
		p.free = p.nodes[n].next
	} else {
		n = int32(len(p.nodes))
		p.nodes = append(p.nodes, node{})
		if p.heap != nil {
			p.heap = append(p.heap, heapNode{})
		}
	}
	p.nodes[n] = node{doc: doc, memPrev: -1}
	return n
}

// release returns node n to the free list.
func (p *Pool) release(n int32) {
	p.nodes[n] = node{next: p.free, memPrev: -1}
	p.free = n
}

func (p *Pool) unlink(mb *member, n int32) {
	nd := &p.nodes[n]
	if nd.prev != 0 {
		p.nodes[nd.prev].next = nd.next
	} else {
		mb.head = nd.next
	}
	if nd.next != 0 {
		p.nodes[nd.next].prev = nd.prev
	} else {
		mb.tail = nd.prev
	}
}

// pushBack makes n the most protected entry of mb's policy list.
func (p *Pool) pushBack(mb *member, n int32) {
	nd := &p.nodes[n]
	nd.prev, nd.next = mb.tail, 0
	if mb.tail != 0 {
		p.nodes[mb.tail].next = n
	} else {
		mb.head = n
	}
	mb.tail = n
}

// memPut charges size for n in mb's memory tier and makes it the most
// recently referenced entry there, demoting from the front until the tier
// fits again — never n itself. A document larger than the whole tier is
// refused and n keeps whatever place and charge it had. Demotion never
// evicts: the document stays resident in its member.
func (p *Pool) memPut(mb *member, n int32, size int64) {
	if size > mb.memCapacity {
		return
	}
	nd := &p.nodes[n]
	if nd.memPrev >= 0 {
		mb.memUsed -= nd.memSize
		p.memUnlink(mb, n)
	}
	nd.memSize = size
	mb.memUsed += size
	nd.memPrev, nd.memNext = mb.memTail, 0
	if mb.memTail != 0 {
		p.nodes[mb.memTail].memNext = n
	} else {
		mb.memHead = n
	}
	mb.memTail = n
	for mb.memUsed > mb.memCapacity {
		victim := mb.memHead
		if victim == n {
			victim = p.nodes[n].memNext
		}
		if victim == 0 {
			break
		}
		p.memRemove(mb, victim)
		if p.onDemote != nil {
			p.onDemote(p.nodes[victim].doc)
		}
	}
}

// memRemove takes n out of mb's memory tier, if it is there.
func (p *Pool) memRemove(mb *member, n int32) {
	nd := &p.nodes[n]
	if nd.memPrev < 0 {
		return
	}
	p.memUnlink(mb, n)
	mb.memUsed -= nd.memSize
	nd.memPrev, nd.memNext = -1, 0
}

func (p *Pool) memUnlink(mb *member, n int32) {
	nd := &p.nodes[n]
	if nd.memPrev != 0 {
		p.nodes[nd.memPrev].memNext = nd.memNext
	} else {
		mb.memHead = nd.memNext
	}
	if nd.memNext != 0 {
		p.nodes[nd.memNext].memPrev = nd.memPrev
	} else {
		mb.memTail = nd.memPrev
	}
}

// less orders heap nodes: the next victim sorts first.
func (p *Pool) less(a, b int32) bool {
	x, y := &p.heap[a], &p.heap[b]
	if x.pri != y.pri {
		return x.pri < y.pri
	}
	return x.seq < y.seq
}

// meld joins two heap roots (either may be 0) and returns the new root.
func (p *Pool) meld(a, b int32) int32 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	if p.less(b, a) {
		a, b = b, a
	}
	ha, hb := &p.heap[a], &p.heap[b]
	hb.sibling = ha.child
	if ha.child != 0 {
		p.heap[ha.child].back = b
	}
	hb.back = a
	ha.child = b
	return a
}

// heapRemove takes n out of mb's heap, keeping its priority and sequence.
func (p *Pool) heapRemove(mb *member, n int32) {
	h := &p.heap[n]
	if mb.root == n {
		mb.root = p.mergePairs(h.child)
	} else {
		if back := &p.heap[h.back]; back.child == n {
			back.child = h.sibling
		} else {
			back.sibling = h.sibling
		}
		if h.sibling != 0 {
			p.heap[h.sibling].back = h.back
		}
		mb.root = p.meld(mb.root, p.mergePairs(h.child))
	}
	h.child, h.sibling, h.back = 0, 0, 0
}

// mergePairs melds a sibling list into one heap: pairs from the left, then
// the pairs from the right.
func (p *Pool) mergePairs(first int32) int32 {
	var pairs int32 // melded pairs, last first, linked through sibling
	for a := first; a != 0; {
		b := p.heap[a].sibling
		p.heap[a].sibling, p.heap[a].back = 0, 0
		if b == 0 {
			p.heap[a].sibling = pairs
			pairs = a
			break
		}
		next := p.heap[b].sibling
		p.heap[b].sibling, p.heap[b].back = 0, 0
		m := p.meld(a, b)
		p.heap[m].sibling = pairs
		pairs = m
		a = next
	}
	var root int32
	for pairs != 0 {
		next := p.heap[pairs].sibling
		p.heap[pairs].sibling = 0
		root = p.meld(pairs, root)
		pairs = next
	}
	if root != 0 {
		p.heap[root].back = 0
	}
	return root
}

// ids lists member m's resident documents, next victim first.
func (p *Pool) ids(m int) []intern.ID {
	mb := &p.members[m]
	ids := make([]intern.ID, 0, mb.count)
	var order []int32
	for n := mb.head; n != 0; n = p.nodes[n].next {
		if p.heaped() {
			order = append(order, n)
		} else {
			ids = append(ids, p.nodes[n].doc.ID)
		}
	}
	if p.heaped() {
		// (priority, sequence) is a total order, so the eviction order
		// is the sorted order.
		slices.SortFunc(order, func(a, b int32) int {
			if a == b {
				return 0
			}
			if p.less(a, b) {
				return -1
			}
			return 1
		})
		for _, n := range order {
			ids = append(ids, p.nodes[n].doc.ID)
		}
	}
	return ids
}

// slotTable maps (member, document) to a resident node. Its layout follows
// the pool's member count, fixed at NewPool:
//
//   - one member (byDoc): a dense slice indexed by document ID, one load per
//     probe, sized by the largest ID stored. A standalone cache's IDs are
//     dense: TwoTier's are slots it recycles, the simulator's proxy and
//     parent see the trace's ID space once.
//   - many members: one open-addressing table shared by all, sized by what
//     they hold rather than by members × ID space: linear probing over
//     12-byte slots, Fibonacci hashing, load factor at most 0.75 and
//     backward-shift deletion, so no tombstones accumulate. A slot whose
//     node is 0 is empty.
type slotTable struct {
	byDoc bool
	dense []int32 // byDoc: dense[doc] is the node holding doc, or 0
	slots []slot
	shift uint8 // 64 - log2(len(slots))
	n     int
}

type slot struct {
	member int32
	doc    intern.ID
	node   int32
}

func (t *slotTable) home(m int32, doc intern.ID) uint64 {
	return (uint64(uint32(m))<<32 | uint64(uint32(doc))) * 0x9e3779b97f4a7c15 >> t.shift
}

// get returns the node holding doc in member m, or 0.
func (t *slotTable) get(m int32, doc intern.ID) int32 {
	if t.byDoc {
		if uint(doc) < uint(len(t.dense)) {
			return t.dense[doc]
		}
		return 0
	}
	if t.n == 0 {
		return 0
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(m, doc); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.node == 0 {
			return 0
		}
		if s.doc == doc && s.member == m {
			return s.node
		}
	}
}

// put records node n (non-zero) for doc in member m, which must be absent.
func (t *slotTable) put(m int32, doc intern.ID, n int32) {
	t.n++
	if t.byDoc {
		if int(doc) >= cap(t.dense) {
			// Document IDs arrive in increasing order as a trace
			// introduces them: double, or every new ID reallocates.
			grown := make([]int32, len(t.dense), max(2*cap(t.dense), int(doc)+1))
			copy(grown, t.dense)
			t.dense = grown
		}
		if int(doc) >= len(t.dense) {
			t.dense = t.dense[:int(doc)+1]
		}
		t.dense[doc] = n
		return
	}
	if t.n > len(t.slots)-len(t.slots)/4 { // load factor 0.75
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := t.home(m, doc)
	for t.slots[i].node != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = slot{member: m, doc: doc, node: n}
}

// del forgets doc in member m, compacting the probe chain behind it.
func (t *slotTable) del(m int32, doc intern.ID) {
	if t.byDoc {
		t.dense[doc] = 0
		t.n--
		return
	}
	mask := uint64(len(t.slots) - 1)
	i := t.home(m, doc)
	for {
		s := &t.slots[i]
		if s.node == 0 {
			return
		}
		if s.doc == doc && s.member == m {
			break
		}
		i = (i + 1) & mask
	}
	t.n--
	// Backward shift: move back every later entry of the chain whose home
	// does not lie cyclically in (i, j].
	for j := (i + 1) & mask; t.slots[j].node != 0; j = (j + 1) & mask {
		s := t.slots[j]
		if (j-t.home(s.member, s.doc))&mask >= (j-i)&mask {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i] = slot{}
}

// clear drops every entry, keeping the slots.
func (t *slotTable) clear() {
	clear(t.dense)
	clear(t.slots)
	t.n = 0
}

func (t *slotTable) grow() {
	old := t.slots
	size := max(2*len(old), 16)
	t.slots = make([]slot, size)
	t.shift = uint8(64 - bits.Len(uint(size-1)))
	mask := uint64(size - 1)
	for _, s := range old {
		if s.node == 0 {
			continue
		}
		i := t.home(s.member, s.doc)
		for t.slots[i].node != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
