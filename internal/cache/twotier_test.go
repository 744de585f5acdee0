package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"baps/internal/intern"
)

func strDoc(key string, size int64) Doc { return Doc{Key: key, Size: size} }

// inMemory reports whether key occupies tt's memory tier.
func inMemory(tt *TwoTier, key string) bool {
	id, ok := tt.slots[key]
	return ok && tt.ids.InMemory(id)
}

func mustTwoTier(t *testing.T, p Policy, capacity, mem int64, opts ...Options) *TwoTier {
	t.Helper()
	tt, err := NewTwoTier(p, capacity, mem, opts...)
	if err != nil {
		t.Fatalf("NewTwoTier: %v", err)
	}
	return tt
}

func TestTwoTierRejectsBadMemCapacity(t *testing.T) {
	if _, err := NewTwoTier(LRU, 100, -1); err != ErrCapacity {
		t.Errorf("mem=-1: err = %v, want ErrCapacity", err)
	}
	if _, err := NewTwoTier(LRU, 100, 101); err != ErrCapacity {
		t.Errorf("mem>capacity: err = %v, want ErrCapacity", err)
	}
}

func TestTwoTierFreshPutLandsInMemory(t *testing.T) {
	tt := mustTwoTier(t, LRU, 100, 20)
	tt.Put(strDoc("a", 10))
	if !inMemory(tt, "a") {
		t.Fatal("fresh doc not in memory tier")
	}
	_, tier, ok := tt.GetTier("a")
	if !ok || tier != TierMemory {
		t.Fatalf("GetTier(a) = %v, %v; want memory hit", tier, ok)
	}
}

func TestTwoTierDemotionToDisk(t *testing.T) {
	tt := mustTwoTier(t, LRU, 100, 20)
	tt.Put(strDoc("a", 10))
	tt.Put(strDoc("b", 10))
	tt.Put(strDoc("c", 10)) // memory holds 20 bytes max → "a" demoted
	if inMemory(tt, "a") {
		t.Fatal("a still in memory after demotion pressure")
	}
	if _, ok := tt.Peek("a"); !ok {
		t.Fatal("a evicted entirely; demotion must keep it resident")
	}
	_, tier, ok := tt.GetTier("a")
	if !ok || tier != TierDisk {
		t.Fatalf("GetTier(a) = %v, %v; want disk hit", tier, ok)
	}
	// The disk hit promotes a back to memory.
	if !inMemory(tt, "a") {
		t.Fatal("disk hit did not promote a to memory")
	}
}

func TestTwoTierEvictionClearsMemory(t *testing.T) {
	var evicted []string
	tt := mustTwoTier(t, LRU, 20, 20, Options{OnEvict: func(d Doc) { evicted = append(evicted, d.Key) }})
	tt.Put(strDoc("a", 10))
	tt.Put(strDoc("b", 10))
	tt.Put(strDoc("c", 10)) // overall eviction of a
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Fatalf("OnEvict saw %v, want [a]", evicted)
	}
	if inMemory(tt, "a") {
		t.Fatal("evicted doc still counted in memory tier")
	}
	if memUsed(tt) > tt.ids.MemoryCapacity() {
		t.Fatalf("memory overflow: %d > %d", memUsed(tt), tt.ids.MemoryCapacity())
	}
}

func TestTwoTierRemoveClearsBothTiers(t *testing.T) {
	tt := mustTwoTier(t, LRU, 100, 50)
	tt.Put(strDoc("a", 10))
	if !tt.Remove("a") {
		t.Fatal("Remove(a) = false")
	}
	if inMemory(tt, "a") {
		t.Fatal("removed doc still in memory tier")
	}
	if _, _, ok := tt.GetTier("a"); ok {
		t.Fatal("removed doc still resident")
	}
}

func TestTwoTierDocLargerThanMemoryIsDiskOnly(t *testing.T) {
	tt := mustTwoTier(t, LRU, 100, 10)
	tt.Put(strDoc("big", 50))
	if inMemory(tt, "big") {
		t.Fatal("doc larger than memory tier admitted to memory")
	}
	_, tier, ok := tt.GetTier("big")
	if !ok || tier != TierDisk {
		t.Fatalf("GetTier(big) = %v, %v; want disk hit", tier, ok)
	}
}

func TestTwoTierAccessors(t *testing.T) {
	tt := mustTwoTier(t, LRU, 30, 10)
	tt.Put(strDoc("a", 10))
	tt.Put(strDoc("b", 10))
	tt.Put(strDoc("c", 10))
	if tt.Len() != 3 || tt.Used() != 30 || tt.Capacity() != 30 {
		t.Fatalf("accessors wrong: Len=%d Used=%d Cap=%d", tt.Len(), tt.Used(), tt.Capacity())
	}
	if got := len(tt.Keys()); got != 3 {
		t.Fatalf("Keys() len = %d, want 3", got)
	}
}

// TestQuickTwoTierInvariants: memory residency is always a subset of overall
// residency, memory bytes never exceed the memory capacity, and the slot
// table holds exactly the resident keys: every slot in use names a resident
// key that maps back to it, every other slot is on the free list, and slots
// never outnumber the largest resident set plus one.
func TestQuickTwoTierInvariants(t *testing.T) {
	type script struct {
		capacity, mem int64
		ops           []scriptOp
	}
	gen := func(r *rand.Rand) script {
		cp := int64(r.Intn(400) + 50)
		s := script{capacity: cp, mem: cp / int64(r.Intn(9)+2)}
		for i := 0; i < 300; i++ {
			s.ops = append(s.ops, scriptOp{kind: r.Intn(4), key: intern.ID(r.Intn(30)), size: int64(r.Intn(60) + 1)})
		}
		return s
	}
	f := func(seed int64) bool {
		s := gen(rand.New(rand.NewSource(seed)))
		pol := Policy(seed & 7 % 5)
		tt, err := NewTwoTier(pol, s.capacity, s.mem)
		if err != nil {
			t.Fatalf("NewTwoTier: %v", err)
		}
		peak := 0
		for i, op := range s.ops {
			key := fmt.Sprintf("k%d", op.key)
			switch op.kind {
			case 0:
				tt.Put(Doc{Key: key, Size: op.size})
			case 1:
				tt.GetTier(key)
			case 2:
				tt.Remove(key)
			case 3:
				tt.Seed(Doc{Key: key, Size: op.size})
			}
			peak = max(peak, tt.Len())
			if memUsed(tt) > tt.ids.MemoryCapacity() {
				t.Errorf("op %d: memory %d > cap %d", i, memUsed(tt), tt.ids.MemoryCapacity())
				return false
			}
			if tt.Used() > tt.Capacity() {
				t.Errorf("op %d: used %d > cap %d", i, tt.Used(), tt.Capacity())
				return false
			}
			if len(tt.slots) != tt.Len() || len(tt.slots)+len(tt.free) != len(tt.keys) || len(tt.keys) > peak+1 {
				t.Errorf("op %d: %d slots in use, %d free, %d in all; %d resident (peak %d)",
					i, len(tt.slots), len(tt.free), len(tt.keys), tt.Len(), peak)
				return false
			}
			for id, k := range tt.keys {
				if k == "" {
					if tt.ids.InMemory(intern.ID(id)) {
						t.Errorf("op %d: free slot %d in the memory tier", i, id)
						return false
					}
					continue
				}
				if tt.slots[k] != intern.ID(id) {
					t.Errorf("op %d: slot %d names %q, which maps to %d", i, id, k, tt.slots[k])
					return false
				}
				if _, ok := tt.ids.Peek(intern.ID(id)); !ok {
					t.Errorf("op %d: slot %d (%q) in use but not resident", i, id, k)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// memUsed reports the bytes in tt's memory tier.
func memUsed(tt *TwoTier) int64 { return tt.ids.MemoryUsed() }

// Once warm, a Put or Seed that evicts allocates nothing: the evictions come
// back in a buffer the next store reuses.
func TestTwoTierStoreReusesEvictionBuffer(t *testing.T) {
	c, err := NewTwoTier(LRU, 400, 200)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	i := 0
	store := func() {
		put := c.Put
		if i%2 == 1 {
			put = c.Seed
		}
		evicted, admitted := put(Doc{Key: keys[i%len(keys)], Size: 100})
		if !admitted || (i >= 4 && len(evicted) != 1) {
			t.Fatalf("store %d: admitted %v, evicted %v", i, admitted, evicted)
		}
		i++
	}
	for range 64 {
		store()
	}
	if allocs := testing.AllocsPerRun(100, store); allocs != 0 {
		t.Fatalf("an evicting store made %.2f allocations, want 0", allocs)
	}
}
