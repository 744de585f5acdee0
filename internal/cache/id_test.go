package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"baps/internal/intern"
)

// TestIDCacheEquivalence drives every policy's cache and the slice model
// (sliceCache) with one random operation stream and asserts identical
// observable behavior: hits, admissions, eviction sets and order, residency,
// byte accounting, and eviction-callback streams. This is the substrate-level
// guarantee behind the simulator's bit-identical golden results.
func TestIDCacheEquivalence(t *testing.T) {
	const (
		numDocs  = 96
		capacity = 40 << 10
		ops      = 6000
	)
	for _, pol := range []Policy{LRU, FIFO, LFU, SIZE, GDSF} {
		t.Run(pol.String(), func(t *testing.T) {
			var refEvicts, idEvicts []IDDoc
			ref := &sliceCache{policy: pol, capacity: capacity, onEvict: func(d IDDoc) { refEvicts = append(refEvicts, d) }}
			ic := MustNewID(pol, capacity, IDOptions{OnEvict: func(d IDDoc) { idEvicts = append(idEvicts, d) }})
			sizes := make([]int64, numDocs)
			rng := rand.New(rand.NewSource(7))
			for i := range sizes {
				sizes[i] = 512 + rng.Int63n(4096)
			}
			for op := 0; op < ops; op++ {
				id := intern.ID(rng.Intn(numDocs))
				switch rng.Intn(10) {
				case 0: // Remove
					if got, want := ic.Remove(id), ref.Remove(id); got != want {
						t.Fatalf("op %d: Remove(%d) = %v, model says %v", op, id, got, want)
					}
				case 1, 2, 3: // Get
					got, gok := ic.Get(id)
					want, wok := ref.Get(id)
					if got != want || gok != wok {
						t.Fatalf("op %d: Get(%d) = (%+v,%v), model (%+v,%v)", op, id, got, gok, want, wok)
					}
				case 4: // Peek
					got, gok := ic.Peek(id)
					want, wok := ref.Peek(id)
					if got != want || gok != wok {
						t.Fatalf("op %d: Peek(%d) = (%+v,%v), model (%+v,%v)", op, id, got, gok, want, wok)
					}
				default: // Put, occasionally as a new version with a new size or too large
					d := IDDoc{ID: id, Size: sizes[id]}
					switch rng.Intn(40) {
					case 0, 1:
						d.Version = rng.Int63n(4)
						sizes[id] = 512 + rng.Int63n(4096)
						d.Size = sizes[id]
					case 2:
						d.Size = capacity + 1
					}
					gotEv, gAdm := ic.Put(d)
					wantEv, wAdm := ref.Put(d)
					if gAdm != wAdm || !slices.Equal(gotEv, wantEv) {
						t.Fatalf("op %d: Put(%+v) = (%v, %v), model (%v, %v)", op, d, gotEv, gAdm, wantEv, wAdm)
					}
				}
				if ic.Len() != len(ref.ents) || ic.Used() != ref.used {
					t.Fatalf("op %d: accounting diverged: len %d/%d used %d/%d",
						op, ic.Len(), len(ref.ents), ic.Used(), ref.used)
				}
				if op%500 == 0 {
					if got, want := ic.IDs(), ref.IDs(); !slices.Equal(got, want) {
						t.Fatalf("op %d: eviction order %v, model %v", op, got, want)
					}
				}
			}
			if got, want := ic.IDs(), ref.IDs(); !slices.Equal(got, want) {
				t.Fatalf("final eviction order %v, model %v", got, want)
			}
			if !slices.Equal(idEvicts, refEvicts) {
				t.Fatalf("callback streams diverged: %d vs %d evictions", len(idEvicts), len(refEvicts))
			}
		})
	}
}

// TestIDTwoTierEquivalence checks the string face against the engine it
// wraps: the face recycles slot IDs as documents come and go, and must still
// make every decision a fixed-ID IDTwoTier makes, including tier
// classification and memory-tier bytes, under every policy.
func TestIDTwoTierEquivalence(t *testing.T) {
	const (
		numDocs = 64
		cap     = 48 << 10
		memCap  = 8 << 10
		ops     = 4000
	)
	for _, pol := range []Policy{LRU, FIFO, LFU, SIZE, GDSF} {
		st, err := NewTwoTier(pol, cap, memCap)
		if err != nil {
			t.Fatal(err)
		}
		it, err := NewIDTwoTier(pol, cap, memCap)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, numDocs)
		rng := rand.New(rand.NewSource(11))
		sizes := make([]int64, numDocs)
		for i := range keys {
			keys[i] = fmt.Sprintf("http://tt/doc%d", i)
			sizes[i] = 512 + rng.Int63n(2048)
		}
		for op := 0; op < ops; op++ {
			k := rng.Intn(numDocs)
			id := intern.ID(k)
			switch rng.Intn(6) {
			case 0, 1:
				ev1, adm1 := st.Put(Doc{Key: keys[k], Size: sizes[k]})
				ev2, adm2 := it.Put(IDDoc{ID: id, Size: sizes[k]})
				if adm1 != adm2 || len(ev1) != len(ev2) {
					t.Fatalf("%v op %d: Put = (%d evicted, %v) vs (%d, %v)", pol, op, len(ev1), adm1, len(ev2), adm2)
				}
				for i := range ev1 {
					if ev1[i].Key != keys[ev2[i].ID] || ev1[i].Size != ev2[i].Size {
						t.Fatalf("%v op %d: eviction %d = %v vs %v", pol, op, i, ev1[i], ev2[i])
					}
				}
			case 2:
				if got, want := st.Remove(keys[k]), it.Remove(id); got != want {
					t.Fatalf("%v op %d: Remove = %v vs %v", pol, op, got, want)
				}
			default:
				_, sTier, sok := st.GetTier(keys[k])
				_, iTier, iok := it.GetTier(id)
				if sok != iok || (sok && sTier != iTier) {
					t.Fatalf("%v op %d: GetTier(%s) = (%v,%v) vs (%v,%v)", pol, op, keys[k], sTier, sok, iTier, iok)
				}
			}
			if st.ids.MemoryUsed() != it.MemoryUsed() || st.Used() != it.Used() {
				t.Fatalf("%v op %d: usage diverged: mem %d/%d total %d/%d",
					pol, op, st.ids.MemoryUsed(), it.MemoryUsed(), st.Used(), it.Used())
			}
		}
		got, want := st.Keys(), it.IDs()
		if len(got) != len(want) {
			t.Fatalf("%v: %d keys vs %d IDs", pol, len(got), len(want))
		}
		for i := range want {
			if got[i] != keys[want[i]] {
				t.Fatalf("%v: eviction order diverged at %d: %s vs %s", pol, i, got[i], keys[want[i]])
			}
		}
	}
}

// TestIDCacheReset verifies Reset yields a cache indistinguishable from a
// fresh one while retaining backing storage.
func TestIDCacheReset(t *testing.T) {
	for _, pol := range []Policy{LRU, FIFO, LFU, SIZE, GDSF} {
		t.Run(pol.String(), func(t *testing.T) {
			fill := func(c IDCache) {
				for i := 0; i < 200; i++ {
					c.Put(IDDoc{ID: intern.ID(i % 64), Size: int64(600 + i)})
					c.Get(intern.ID(i % 7))
				}
			}
			reused := MustNewID(pol, 16<<10)
			fill(reused)
			reused.Reset(16 << 10)
			if reused.Len() != 0 || reused.Used() != 0 {
				t.Fatalf("after Reset: Len=%d Used=%d", reused.Len(), reused.Used())
			}
			fresh := MustNewID(pol, 16<<10)
			fill(reused)
			fill(fresh)
			r, f := reused.IDs(), fresh.IDs()
			if len(r) != len(f) {
				t.Fatalf("reused has %d docs, fresh %d", len(r), len(f))
			}
			for i := range r {
				if r[i] != f[i] {
					t.Fatalf("eviction order diverged at %d: %d vs %d", i, r[i], f[i])
				}
			}
			if reused.Used() != fresh.Used() {
				t.Fatalf("used %d vs %d", reused.Used(), fresh.Used())
			}
		})
	}
}
