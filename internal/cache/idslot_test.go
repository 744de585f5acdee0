package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"baps/internal/intern"
)

// Sparse and dense slot tables must be behaviorally indistinguishable:
// same hits, same eviction order, same resident sets, under both policies.
func TestIDListSparseEquivalence(t *testing.T) {
	for _, promote := range []bool{true, false} {
		rng := rand.New(rand.NewSource(11))
		dense := newIDListCache(5000, promote, IDOptions{}, nil)
		sparse := newIDListCache(5000, promote, IDOptions{Sparse: true}, nil)
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
		// Reset must restore both to the same empty state.
		dense.Reset(100)
		sparse.Reset(100)
		if dense.Len() != 0 || sparse.Len() != 0 || len(sparse.IDs()) != 0 {
			t.Fatal("Reset left residents")
		}
		if _, ok := sparse.Get(1); ok {
			t.Fatal("sparse Get hit after Reset")
		}
	}
}

// docSlot against a reference map, hammering the backward-shift deletion.
func TestDocSlotAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var m docSlot
	ref := map[intern.ID]int32{}
	for op := 0; op < 300000; op++ {
		id := intern.ID(rng.Intn(500)) // small space forces dense probe chains
		switch rng.Intn(3) {
		case 0:
			v := int32(rng.Intn(1 << 20))
			if v == 0 {
				v = 1
			}
			m.set(id, v)
			ref[id] = v
		case 1:
			m.del(id)
			delete(ref, id)
		default:
			want := ref[id] // 0 when absent — matches docSlot's sentinel
			if got := m.get(id); got != want {
				t.Fatalf("op %d: get(%d) = %d want %d", op, id, got, want)
			}
		}
		if m.n != len(ref) {
			t.Fatalf("op %d: size %d want %d", op, m.n, len(ref))
		}
	}
	for id, want := range ref {
		if got := m.get(id); got != want {
			t.Fatalf("final get(%d) = %d want %d", id, got, want)
		}
	}
}

func BenchmarkIDListSparseGet(b *testing.B) {
	c := newIDListCache(1<<30, true, IDOptions{Sparse: true}, nil)
	for i := 0; i < 1024; i++ {
		c.Put(IDDoc{ID: intern.ID(i * 1000), Size: 100})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(intern.ID((i % 1024) * 1000))
	}
}
