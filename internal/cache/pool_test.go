package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"baps/internal/intern"
)

// TestPoolMatchesIndependentCaches is the engine's differential property
// test: one pool of N members, under every policy, against N independent
// references (the sliceCache policy oracle plus a slice LRU memory tier
// each), driven by one random stream of Get, Peek, Put (new documents,
// re-stores at a new size, documents too large for the member or its
// memory tier), Remove and ResetTiers with new capacities. Every result,
// every eviction list and every member's accounting must match after every
// step, and the eviction orders and memory residency periodically.
func TestPoolMatchesIndependentCaches(t *testing.T) {
	const members, ids, ops = 7, 48, 20000
	for _, pol := range []Policy{LRU, FIFO, LFU, SIZE, GDSF} {
		t.Run(pol.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(pol) + 31))
			p, err := NewPool(pol, members)
			if err != nil {
				t.Fatal(err)
			}
			refs := make([]*refTwoTier, members)
			reset := func(m int) {
				capacity := rng.Int63n(12000)
				memCap := capacity * rng.Int63n(11) / 10
				p.ResetTiers(m, capacity, memCap)
				refs[m] = newRefTwoTier(pol, capacity, memCap)
			}
			for m := range refs {
				reset(m)
			}
			for op := 0; op < ops; op++ {
				m := rng.Intn(members)
				id := intern.ID(rng.Intn(ids))
				ref := refs[m]
				where := fmt.Sprintf("op %d member %d", op, m)
				switch r := rng.Intn(20); {
				case r < 7:
					size := 1 + rng.Int63n(2500)
					switch rng.Intn(25) {
					case 0:
						size = p.members[m].capacity + 1 + rng.Int63n(100)
					case 1:
						size = p.members[m].memCapacity + 1 + rng.Int63n(100)
					}
					doc := IDDoc{ID: id, Size: size, Version: int64(op)}
					gotEv, gotAdm := p.Put(m, doc)
					got := fmt.Sprint(gotEv, gotAdm)
					wantEv, wantAdm := ref.put(doc)
					if want := fmt.Sprint(wantEv, wantAdm); got != want {
						t.Fatalf("%s: Put(%v) = %s, reference %s", where, doc, got, want)
					}
				case r < 13:
					gd, gt, gok := p.GetTier(m, id)
					rd, rt, rok := ref.getTier(id)
					if gd != rd || gt != rt || gok != rok {
						t.Fatalf("%s: GetTier(%d) = (%v,%v,%v), reference (%v,%v,%v)", where, id, gd, gt, gok, rd, rt, rok)
					}
				case r < 16:
					gd, gok := p.Peek(m, id)
					rd, rok := ref.inner.Peek(id)
					if gd != rd || gok != rok {
						t.Fatalf("%s: Peek(%d) = (%v,%v), reference (%v,%v)", where, id, gd, gok, rd, rok)
					}
				case r < 19:
					if got, want := p.Remove(m, id), ref.remove(id); got != want {
						t.Fatalf("%s: Remove(%d) = %v, reference %v", where, id, got, want)
					}
				default:
					if rng.Intn(10) == 0 {
						reset(m)
					}
				}
				mb, ref := &p.members[m], refs[m]
				if mb.used != ref.inner.Used() || int(mb.count) != ref.inner.Len() || mb.memUsed != ref.mem.used {
					t.Fatalf("%s: used/len/mem %d/%d/%d, reference %d/%d/%d", where,
						mb.used, mb.count, mb.memUsed, ref.inner.Used(), ref.inner.Len(), ref.mem.used)
				}
				if op%250 == 0 {
					for m, ref := range refs {
						checkAgainstRef(t, fmt.Sprintf("op %d member %d", op, m), p.Member(m), ref, ids)
					}
				}
			}
			resident := 0
			for m := range refs {
				resident += p.Len(m)
			}
			if p.slots.n != resident {
				t.Fatalf("slot table holds %d entries for %d resident documents", p.slots.n, resident)
			}
		})
	}
}

// LRU and FIFO members of a many-member pool (sparse) and one-member pools
// over a wide ID space agree on every result.
func TestIDListSparseEquivalence(t *testing.T) {
	for _, pol := range []Policy{LRU, FIFO} {
		rng := rand.New(rand.NewSource(11))
		dense := MustNewID(pol, 5000)
		sparse, neighboursUnchanged := newTestTwoTier(t, pol, 5000, 0, true)
		for op := 0; op < 100000; op++ {
			id := intern.ID(rng.Intn(3000)) // wide ID space, small cache
			switch rng.Intn(4) {
			case 0:
				gd, okd := dense.Get(id)
				gs, oks := sparse.Get(id)
				if okd != oks || gd != gs {
					t.Fatalf("op %d: Get(%d) diverged: %v/%v vs %v/%v", op, id, gd, okd, gs, oks)
				}
			case 1:
				doc := IDDoc{ID: id, Size: int64(rng.Intn(500) + 1), Version: int64(rng.Intn(3))}
				evd, okd := dense.Put(doc)
				evs, oks := sparse.Put(doc)
				if okd != oks || !reflect.DeepEqual(evd, evs) {
					t.Fatalf("op %d: Put(%v) diverged: %v/%v vs %v/%v", op, doc, evd, okd, evs, oks)
				}
			case 2:
				if dense.Remove(id) != sparse.Remove(id) {
					t.Fatalf("op %d: Remove(%d) diverged", op, id)
				}
			default:
				pd, okd := dense.Peek(id)
				ps, oks := sparse.Peek(id)
				if okd != oks || pd != ps {
					t.Fatalf("op %d: Peek(%d) diverged", op, id)
				}
			}
			if dense.Len() != sparse.Len() || dense.Used() != sparse.Used() {
				t.Fatalf("op %d: shape diverged: len %d/%d used %d/%d", op, dense.Len(), sparse.Len(), dense.Used(), sparse.Used())
			}
		}
		if !reflect.DeepEqual(dense.IDs(), sparse.IDs()) {
			t.Fatalf("final eviction order diverged")
		}
		neighboursUnchanged()
		// Reset must restore both to the same empty state.
		dense.Reset(100)
		sparse.Reset(100)
		if dense.Len() != 0 || sparse.Len() != 0 || len(sparse.IDs()) != 0 {
			t.Fatal("Reset left residents")
		}
		if _, ok := sparse.Get(1); ok {
			t.Fatal("sparse Get hit after Reset")
		}
		neighboursUnchanged()
	}
}

// Both slot-table layouts against a reference map: the shared table with
// small member and document spaces, so probe chains run long and
// backward-shift deletion is exercised hard, and a one-member pool's dense
// slice.
func TestSlotTableAgainstMap(t *testing.T) {
	type key struct {
		m   int32
		doc intern.ID
	}
	for _, byDoc := range []bool{false, true} {
		members := 6
		if byDoc {
			members = 1
		}
		rng := rand.New(rand.NewSource(5))
		tab := slotTable{byDoc: byDoc}
		ref := map[key]int32{}
		for op := 0; op < 300000; op++ {
			k := key{int32(rng.Intn(members)), intern.ID(rng.Intn(100))}
			switch rng.Intn(3) {
			case 0:
				if _, ok := ref[k]; ok {
					continue
				}
				v := int32(rng.Intn(1<<20)) + 1
				tab.put(k.m, k.doc, v)
				ref[k] = v
			case 1:
				if _, ok := ref[k]; ok {
					tab.del(k.m, k.doc)
					delete(ref, k)
				}
			default:
				if got, want := tab.get(k.m, k.doc), ref[k]; got != want {
					t.Fatalf("byDoc=%v op %d: get(%v) = %d want %d", byDoc, op, k, got, want)
				}
			}
			if tab.n != len(ref) {
				t.Fatalf("byDoc=%v op %d: size %d want %d", byDoc, op, tab.n, len(ref))
			}
		}
		for k, want := range ref {
			if got := tab.get(k.m, k.doc); got != want {
				t.Fatalf("byDoc=%v final get(%v) = %d want %d", byDoc, k, got, want)
			}
		}
	}
}

// heapBytes reports the live heap after a full collection.
func heapBytes() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestPoolFootprint bounds what a pool costs: at most 80 B per empty member
// (the header is 72 B) and at most 96 B per resident document (a 48 B node
// plus its slot-table share, 16 B at the fullest and 32 B just after a
// doubling, and the append headroom of the node arena), measured on 20 000
// members holding 100 000 documents. A standalone cache of an agent's size
// (16 KiB LRU) must stay under 1 KiB empty, since an agent host keeps one
// per agent and a soak runs thousands.
func TestPoolFootprint(t *testing.T) {
	const members, docs = 20000, 100000
	base := heapBytes()
	p, err := NewPool(LRU, members)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < members; m++ {
		p.ResetTiers(m, 1<<30, 1<<27)
	}
	empty := heapBytes() - base
	for i := 0; i < docs; i++ {
		p.Put(i%members, IDDoc{ID: intern.ID(i), Size: 100})
	}
	full := heapBytes() - base
	perMember := float64(empty) / members
	perDoc := float64(full-empty) / docs
	t.Logf("%.1f B per empty member, %.1f B per resident document", perMember, perDoc)
	if perMember > 80 || perDoc > 96 {
		t.Errorf("footprint %.1f B per member, %.1f B per document; bounds 80 and 96", perMember, perDoc)
	}
	runtime.KeepAlive(p)

	const agents = 10000
	base = heapBytes()
	caches := make([]*TwoTier, agents)
	for i := range caches {
		if caches[i], err = NewTwoTier(LRU, 16384, 1638); err != nil {
			t.Fatal(err)
		}
	}
	perAgent := float64(heapBytes()-base) / agents
	t.Logf("%.1f B per empty agent-sized TwoTier", perAgent)
	if perAgent > 1024 {
		t.Errorf("agent-sized TwoTier costs %.1f B; bound 1024", perAgent)
	}
	runtime.KeepAlive(caches)
}

// A pool's members make no allocation of their own: building one of any
// size is a fixed number of allocations.
func TestNewPoolAllocationsIndependentOfMembers(t *testing.T) {
	for _, n := range []int{1, 1000, 100000} {
		allocs := testing.AllocsPerRun(5, func() {
			p, _ := NewPool(GDSF, n)
			for m := 0; m < n; m++ {
				p.ResetTiers(m, 1000, 100)
			}
		})
		if allocs > 4 {
			t.Errorf("NewPool(%d) made %.0f allocations; want at most 4", n, allocs)
		}
	}
}

func BenchmarkPoolMemberGet(b *testing.B) {
	p, _ := NewPool(LRU, 1000)
	for m := 0; m < 1000; m++ {
		p.ResetTiers(m, 1<<30, 1<<27)
		for i := 0; i < 32; i++ {
			p.Put(m, IDDoc{ID: intern.ID(i * 1000), Size: 100})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.GetTier(i%1000, intern.ID((i%32)*1000))
	}
}
