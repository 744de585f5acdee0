package cache

import (
	"slices"

	"baps/internal/intern"
)

// sliceCache is the oracle the engine is checked against: every policy as
// one O(n) slice. Each entry carries an eviction priority and the sequence
// number of its last reference; the victim is the entry of least
// (priority, sequence), never the document being stored. LRU and FIFO have
// priority 0, so the sequence alone orders them (FIFO never refreshes it);
// LFU's priority is the reference count, SIZE's the negated size, GDSF's
// L + count/size, where L (aging) becomes each victim's priority.
type sliceCache struct {
	policy         Policy
	capacity, used int64
	seq            uint64
	aging          float64
	ents           []sliceEntry
	onEvict        func(IDDoc)
}

type sliceEntry struct {
	doc  IDDoc
	refs int64
	pri  float64
	seq  uint64
}

func (c *sliceCache) find(id intern.ID) int {
	return slices.IndexFunc(c.ents, func(e sliceEntry) bool { return e.doc.ID == id })
}

// reference books a reference to entry i (its first, when fresh).
func (c *sliceCache) reference(i int, fresh bool) {
	e := &c.ents[i]
	if c.policy == FIFO && !fresh {
		return
	}
	c.seq++
	e.seq = c.seq
	e.refs++
	switch c.policy {
	case LFU:
		e.pri = float64(e.refs)
	case SIZE:
		e.pri = -float64(e.doc.Size)
	case GDSF:
		e.pri = c.aging + float64(e.refs)/float64(max(e.doc.Size, 1))
	}
}

func (c *sliceCache) Get(id intern.ID) (IDDoc, bool) {
	i := c.find(id)
	if i < 0 {
		return IDDoc{}, false
	}
	c.reference(i, false)
	return c.ents[i].doc, true
}

func (c *sliceCache) Peek(id intern.ID) (IDDoc, bool) {
	if i := c.find(id); i >= 0 {
		return c.ents[i].doc, true
	}
	return IDDoc{}, false
}

func (c *sliceCache) Put(doc IDDoc) ([]IDDoc, bool) {
	if doc.Size > c.capacity {
		return nil, false
	}
	i := c.find(doc.ID)
	if i >= 0 {
		c.used += doc.Size - c.ents[i].doc.Size
		c.ents[i].doc = doc
		c.reference(i, false)
	} else {
		c.ents = append(c.ents, sliceEntry{doc: doc})
		c.used += doc.Size
		c.reference(len(c.ents)-1, true)
	}
	var evicted []IDDoc
	for c.used > c.capacity {
		v := -1
		for j, e := range c.ents {
			if e.doc.ID != doc.ID && (v < 0 || e.pri < c.ents[v].pri || e.pri == c.ents[v].pri && e.seq < c.ents[v].seq) {
				v = j
			}
		}
		victim := c.ents[v]
		if c.policy == GDSF {
			c.aging = victim.pri
		}
		c.ents = slices.Delete(c.ents, v, v+1)
		c.used -= victim.doc.Size
		evicted = append(evicted, victim.doc)
		if c.onEvict != nil {
			c.onEvict(victim.doc)
		}
	}
	return evicted, true
}

func (c *sliceCache) Remove(id intern.ID) bool {
	i := c.find(id)
	if i < 0 {
		return false
	}
	c.used -= c.ents[i].doc.Size
	c.ents = slices.Delete(c.ents, i, i+1)
	return true
}

// IDs lists the resident documents, next victim first.
func (c *sliceCache) IDs() []intern.ID {
	order := slices.Clone(c.ents)
	slices.SortFunc(order, func(a, b sliceEntry) int {
		switch {
		case a.pri < b.pri || a.pri == b.pri && a.seq < b.seq:
			return -1
		case a.pri == b.pri && a.seq == b.seq:
			return 0
		}
		return 1
	})
	ids := make([]intern.ID, len(order))
	for i, e := range order {
		ids[i] = e.doc.ID
	}
	return ids
}
