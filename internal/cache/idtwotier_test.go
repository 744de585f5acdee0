package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"baps/internal/intern"
)

// refTwoTier is the reference the threaded memory tier is checked against:
// the policy cache on its own plus the memory portion as a separate slice
// LRU beside it, which is how IDTwoTier used to be built.
type refTwoTier struct {
	inner IDCache
	mem   refLRU
}

// refLRU is the obvious LRU: docs[0] is the next demotion victim, the back
// the most recently referenced document. A document larger than the tier is
// refused without disturbing anything (including an older, smaller copy of
// it); the document just referenced is never demoted.
type refLRU struct {
	capacity, used int64
	docs           []IDDoc
}

func (m *refLRU) find(id intern.ID) int {
	for i := range m.docs {
		if m.docs[i].ID == id {
			return i
		}
	}
	return -1
}

func (m *refLRU) put(doc IDDoc) {
	if doc.Size > m.capacity {
		return
	}
	if i := m.find(doc.ID); i >= 0 {
		m.used -= m.docs[i].Size
		m.docs = append(m.docs[:i], m.docs[i+1:]...)
	}
	m.docs = append(m.docs, doc)
	m.used += doc.Size
	for i := 0; m.used > m.capacity && i < len(m.docs); {
		if m.docs[i].ID == doc.ID {
			i++
			continue
		}
		m.used -= m.docs[i].Size
		m.docs = append(m.docs[:i], m.docs[i+1:]...)
	}
}

func (m *refLRU) remove(id intern.ID) {
	if i := m.find(id); i >= 0 {
		m.used -= m.docs[i].Size
		m.docs = append(m.docs[:i], m.docs[i+1:]...)
	}
}

func newRefTwoTier(pol Policy, capacity, memCap int64, sparse bool) *refTwoTier {
	r := &refTwoTier{mem: refLRU{capacity: memCap}}
	r.inner = MustNewID(pol, capacity, IDOptions{Sparse: sparse, OnEvict: func(d IDDoc) { r.mem.remove(d.ID) }})
	return r
}

func (r *refTwoTier) getTier(id intern.ID) (IDDoc, Tier, bool) {
	doc, ok := r.inner.Get(id)
	if !ok {
		return IDDoc{}, TierDisk, false
	}
	tier := TierDisk
	if r.mem.find(id) >= 0 {
		tier = TierMemory
	}
	r.mem.put(doc)
	return doc, tier, true
}

func (r *refTwoTier) put(doc IDDoc) ([]IDDoc, bool) {
	evicted, admitted := r.inner.Put(doc)
	if admitted {
		r.mem.put(doc)
	}
	return evicted, admitted
}

func (r *refTwoTier) remove(id intern.ID) bool {
	r.mem.remove(id)
	return r.inner.Remove(id)
}

func (r *refTwoTier) resetTiers(capacity, memCap int64) {
	r.inner.Reset(capacity)
	r.mem = refLRU{capacity: memCap, docs: r.mem.docs[:0]}
}

// checkAgainstRef asserts the full observable state of tt against the
// reference: accounting, memory residency of every ID, and eviction order.
func checkAgainstRef(t *testing.T, where string, tt *IDTwoTier, ref *refTwoTier, ids int) {
	t.Helper()
	if tt.MemoryUsed() != ref.mem.used || tt.Used() != ref.inner.Used() || tt.Len() != ref.inner.Len() {
		t.Fatalf("%s: accounting mem/used/len = %d/%d/%d, reference %d/%d/%d", where,
			tt.MemoryUsed(), tt.Used(), tt.Len(), ref.mem.used, ref.inner.Used(), ref.inner.Len())
	}
	for probe := 0; probe < ids; probe++ {
		if got, want := tt.InMemory(intern.ID(probe)), ref.mem.find(intern.ID(probe)) >= 0; got != want {
			t.Fatalf("%s: InMemory(%d) = %v, reference %v", where, probe, got, want)
		}
	}
	if got, want := fmt.Sprint(tt.IDs()), fmt.Sprint(ref.inner.IDs()); got != want {
		t.Fatalf("%s: eviction order %s, reference %s", where, got, want)
	}
}

// TestIDTwoTierMatchesReferenceLRU drives IDTwoTier and the reference with
// one random operation stream — admissions, in-place re-stores at a new size
// (some too large for the memory tier), tier lookups, removals and resets —
// for every policy in both slot modes, and asserts identical results after
// every step. It opens with the one case a shared charge would get wrong: a
// memory-resident document re-stored at a size the memory tier refuses
// keeps its old place and charge.
func TestIDTwoTierMatchesReferenceLRU(t *testing.T) {
	for _, pol := range []Policy{LRU, FIFO, LFU, SIZE, GDSF} {
		for _, sparse := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/sparse=%v", pol, sparse), func(t *testing.T) {
				tt, err := NewIDTwoTier(pol, 10_000, 1_000, IDOptions{Sparse: sparse})
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefTwoTier(pol, 10_000, 1_000, sparse)
				for _, doc := range []IDDoc{{ID: 1, Size: 400}, {ID: 2, Size: 300}, {ID: 1, Size: 1_500}} {
					tt.Put(doc)
					ref.put(doc)
				}
				checkAgainstRef(t, "scripted", tt, ref, 3)
				if tt.MemoryUsed() != 700 || !tt.InMemory(1) {
					t.Fatalf("oversize re-store: memory used %d, InMemory(1) %v; want 700, true", tt.MemoryUsed(), tt.InMemory(1))
				}

				for seed := int64(0); seed < 6; seed++ {
					rng := rand.New(rand.NewSource(seed))
					capacity := int64(rng.Intn(8000) + 2000)
					memCap := capacity * int64(rng.Intn(9)+1) / 10
					tt.ResetTiers(capacity, memCap)
					ref.resetTiers(capacity, memCap)
					ids := rng.Intn(40) + 10
					for op := 0; op < 3000; op++ {
						where := fmt.Sprintf("seed %d op %d", seed, op)
						id := intern.ID(rng.Intn(ids))
						switch rng.Intn(6) {
						case 0, 1:
							doc := IDDoc{ID: id, Size: rng.Int63n(memCap*3/2) + 1, Version: int64(op)}
							gotEv, gotAdm := tt.Put(doc)
							got := fmt.Sprint(gotEv, gotAdm)
							wantEv, wantAdm := ref.put(doc)
							if want := fmt.Sprint(wantEv, wantAdm); got != want {
								t.Fatalf("%s: Put(%v) = %s, reference %s", where, doc, got, want)
							}
						case 2, 3:
							gd, gt, gok := tt.GetTier(id)
							rd, rt, rok := ref.getTier(id)
							if gd != rd || gt != rt || gok != rok {
								t.Fatalf("%s: GetTier(%d) = (%v,%v,%v), reference (%v,%v,%v)", where, id, gd, gt, gok, rd, rt, rok)
							}
						case 4:
							if got, want := tt.Remove(id), ref.remove(id); got != want {
								t.Fatalf("%s: Remove(%d) = %v, reference %v", where, id, got, want)
							}
						case 5:
							gd, gok := tt.Peek(id)
							rd, rok := ref.inner.Peek(id)
							if gd != rd || gok != rok {
								t.Fatalf("%s: Peek(%d) = (%v,%v), reference (%v,%v)", where, id, gd, gok, rd, rok)
							}
						}
						checkAgainstRef(t, where, tt, ref, ids)
					}
				}
			})
		}
	}
}

// The slot mode must be invisible: a sparse and a dense two-tier cache fed
// the same operations agree on every result, under every policy.
func TestIDTwoTierSparseMatchesDenseMemoryTier(t *testing.T) {
	for _, pol := range []Policy{LRU, FIFO, LFU, SIZE, GDSF} {
		for seed := int64(0); seed < 10; seed++ {
			rng := rand.New(rand.NewSource(seed + 100))
			capacity := int64(rng.Intn(8000) + 2000)
			memCap := capacity / 2
			sparse, err := NewIDTwoTier(pol, capacity, memCap, IDOptions{Sparse: true})
			if err != nil {
				t.Fatal(err)
			}
			dense, err := NewIDTwoTier(pol, capacity, memCap)
			if err != nil {
				t.Fatal(err)
			}
			ids := rng.Intn(40) + 10
			for op := 0; op < 4000; op++ {
				id := intern.ID(rng.Intn(ids))
				switch rng.Intn(5) {
				case 0, 1:
					doc := IDDoc{ID: id, Size: int64(rng.Intn(1500) + 1), Version: int64(op)}
					sev, sad := sparse.Put(doc)
					dev, dad := dense.Put(doc)
					if sad != dad || fmt.Sprint(sev) != fmt.Sprint(dev) {
						t.Fatalf("%s seed %d op %d: Put(%d) sparse=(%v,%v) dense=(%v,%v)",
							pol, seed, op, id, sev, sad, dev, dad)
					}
				case 2:
					sd, st, sok := sparse.GetTier(id)
					dd, dt, dok := dense.GetTier(id)
					if sok != dok || st != dt || sd != dd {
						t.Fatalf("%s seed %d op %d: GetTier(%d) sparse=(%v,%v,%v) dense=(%v,%v,%v)",
							pol, seed, op, id, sd, st, sok, dd, dt, dok)
					}
				case 3:
					if sparse.Remove(id) != dense.Remove(id) {
						t.Fatalf("%s seed %d op %d: Remove(%d) disagreed", pol, seed, op, id)
					}
				case 4:
					if sparse.InMemory(id) != dense.InMemory(id) {
						t.Fatalf("%s seed %d op %d: InMemory(%d) disagreed", pol, seed, op, id)
					}
				}
				if sparse.MemoryUsed() != dense.MemoryUsed() || sparse.Used() != dense.Used() {
					t.Fatalf("%s seed %d op %d: used sparse=(%d,%d) dense=(%d,%d)", pol, seed, op,
						sparse.Used(), sparse.MemoryUsed(), dense.Used(), dense.MemoryUsed())
				}
			}
		}
	}
}
