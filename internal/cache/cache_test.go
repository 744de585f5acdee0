package cache

import (
	"testing"

	"baps/internal/intern"
)

// names interns the documents the tests name: the engine is keyed by ID.
var names = intern.NewTable(64)

func k(name string) intern.ID { return names.Intern(name) }

func doc(name string, size int64) IDDoc { return IDDoc{ID: k(name), Size: size} }

// named lists the names of docs.
func named(docs []IDDoc) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = names.String(d.ID)
	}
	return out
}

// keys lists c's documents by name, in eviction order.
func keys(c IDCache) []string {
	var out []string
	for _, id := range c.IDs() {
		out = append(out, names.String(id))
	}
	return out
}

// mustPut stores d and returns a copy of what it evicted.
func mustPut(t *testing.T, c IDCache, d IDDoc) []IDDoc {
	t.Helper()
	ev, admitted := c.Put(d)
	if !admitted {
		t.Fatalf("Put(%v) not admitted", d)
	}
	return append([]IDDoc(nil), ev...)
}

func TestPolicyString(t *testing.T) {
	cases := map[Policy]string{LRU: "LRU", FIFO: "FIFO", LFU: "LFU", SIZE: "SIZE", GDSF: "GDSF", Policy(42): "Policy(42)"}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Policy(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{LRU, FIFO, LFU, SIZE, GDSF} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("ParsePolicy(nope) succeeded, want error")
	}
}

func TestNewRejectsNegativeCapacity(t *testing.T) {
	if _, err := NewID(LRU, -1); err != ErrCapacity {
		t.Fatalf("NewID(LRU, -1) err = %v, want ErrCapacity", err)
	}
}

func TestNewRejectsUnknownPolicy(t *testing.T) {
	if _, err := NewID(Policy(99), 10); err == nil {
		t.Fatal("NewID(Policy(99)) succeeded, want error")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewID with bad capacity did not panic")
		}
	}()
	MustNewID(LRU, -1)
}

func TestZeroCapacityAdmitsNothing(t *testing.T) {
	for _, p := range []Policy{LRU, FIFO, LFU, SIZE, GDSF} {
		c := MustNewID(p, 0)
		if ev, admitted := c.Put(doc("a", 1)); admitted || len(ev) != 0 {
			t.Errorf("%v: zero-capacity cache admitted a doc", p)
		}
		if c.Len() != 0 || c.Used() != 0 {
			t.Errorf("%v: zero-capacity cache non-empty", p)
		}
	}
}

func TestBasicGetPutAllPolicies(t *testing.T) {
	for _, p := range []Policy{LRU, FIFO, LFU, SIZE, GDSF} {
		t.Run(p.String(), func(t *testing.T) {
			c := MustNewID(p, 100)
			if _, ok := c.Get(k("a")); ok {
				t.Fatal("Get on empty cache reported a hit")
			}
			mustPut(t, c, doc("a", 10))
			mustPut(t, c, doc("b", 20))
			if d, ok := c.Get(k("a")); !ok || d.Size != 10 {
				t.Fatalf("Get(a) = %v, %v", d, ok)
			}
			if got := c.Used(); got != 30 {
				t.Fatalf("Used() = %d, want 30", got)
			}
			if got := c.Len(); got != 2 {
				t.Fatalf("Len() = %d, want 2", got)
			}
			if got := c.Capacity(); got != 100 {
				t.Fatalf("Capacity() = %d, want 100", got)
			}
			if got := c.Policy(); got != p {
				t.Fatalf("Policy() = %v, want %v", got, p)
			}
		})
	}
}

func TestOversizedDocRejectedAllPolicies(t *testing.T) {
	for _, p := range []Policy{LRU, FIFO, LFU, SIZE, GDSF} {
		c := MustNewID(p, 50)
		mustPut(t, c, doc("resident", 40))
		ev, admitted := c.Put(doc("huge", 51))
		if admitted {
			t.Errorf("%v: admitted doc larger than capacity", p)
		}
		if len(ev) != 0 {
			t.Errorf("%v: oversized Put evicted %v", p, ev)
		}
		if _, ok := c.Peek(k("resident")); !ok {
			t.Errorf("%v: oversized Put disturbed resident doc", p)
		}
	}
}

func TestReplaceUpdatesSizeAllPolicies(t *testing.T) {
	for _, p := range []Policy{LRU, FIFO, LFU, SIZE, GDSF} {
		c := MustNewID(p, 100)
		mustPut(t, c, doc("a", 10))
		mustPut(t, c, IDDoc{ID: k("a"), Size: 25, Version: 2})
		if c.Len() != 1 {
			t.Errorf("%v: Len = %d after replace, want 1", p, c.Len())
		}
		if c.Used() != 25 {
			t.Errorf("%v: Used = %d after replace, want 25", p, c.Used())
		}
		if d, _ := c.Peek(k("a")); d.Version != 2 {
			t.Errorf("%v: version not updated: %v", p, d)
		}
	}
}

func TestReplaceGrowthEvicts(t *testing.T) {
	c := MustNewID(LRU, 30)
	mustPut(t, c, doc("a", 10))
	mustPut(t, c, doc("b", 10))
	mustPut(t, c, doc("c", 10))
	// Growing c to 25 must evict a and b but never c itself.
	ev := mustPut(t, c, doc("c", 25))
	if len(ev) != 2 {
		t.Fatalf("evicted %v, want 2 docs", ev)
	}
	for _, d := range ev {
		if d.ID == k("c") {
			t.Fatal("replacement evicted the replaced key itself")
		}
	}
	if c.Used() != 25 || c.Len() != 1 {
		t.Fatalf("Used=%d Len=%d, want 25/1", c.Used(), c.Len())
	}
}

func TestRemove(t *testing.T) {
	for _, p := range []Policy{LRU, FIFO, LFU, SIZE, GDSF} {
		c := MustNewID(p, 100)
		mustPut(t, c, doc("a", 10))
		if !c.Remove(k("a")) {
			t.Errorf("%v: Remove(a) = false", p)
		}
		if c.Remove(k("a")) {
			t.Errorf("%v: second Remove(a) = true", p)
		}
		if c.Len() != 0 || c.Used() != 0 {
			t.Errorf("%v: cache not empty after Remove", p)
		}
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := MustNewID(LRU, 30)
	mustPut(t, c, doc("a", 10))
	mustPut(t, c, doc("b", 10))
	mustPut(t, c, doc("c", 10))
	c.Get(k("a")) // a becomes most recent; b is now LRU
	ev := mustPut(t, c, doc("d", 10))
	if len(ev) != 1 || ev[0].ID != k("b") {
		t.Fatalf("evicted %v, want [b]", named(ev))
	}
	// Order of next victims: c, a, d.
	want := []string{"c", "a", "d"}
	got := keys(c)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs() = %v, want %v", got, want)
		}
	}
}

func TestFIFOIgnoresGets(t *testing.T) {
	c := MustNewID(FIFO, 30)
	mustPut(t, c, doc("a", 10))
	mustPut(t, c, doc("b", 10))
	mustPut(t, c, doc("c", 10))
	c.Get(k("a")) // must not protect a under FIFO
	ev := mustPut(t, c, doc("d", 10))
	if len(ev) != 1 || ev[0].ID != k("a") {
		t.Fatalf("evicted %v, want [a]", named(ev))
	}
}

func TestLFUEvictsLeastFrequent(t *testing.T) {
	c := MustNewID(LFU, 30)
	mustPut(t, c, doc("a", 10))
	mustPut(t, c, doc("b", 10))
	mustPut(t, c, doc("c", 10))
	c.Get(k("a"))
	c.Get(k("a"))
	c.Get(k("c"))
	// Frequencies: a=3, b=1, c=2 → b is the victim.
	ev := mustPut(t, c, doc("d", 10))
	if len(ev) != 1 || ev[0].ID != k("b") {
		t.Fatalf("evicted %v, want [b]", named(ev))
	}
}

func TestLFUTieBreaksByRecency(t *testing.T) {
	c := MustNewID(LFU, 20)
	mustPut(t, c, doc("old", 10))
	mustPut(t, c, doc("new", 10))
	// Both freq=1; "old" has the older reference and must go first.
	ev := mustPut(t, c, doc("x", 10))
	if len(ev) != 1 || ev[0].ID != k("old") {
		t.Fatalf("evicted %v, want [old]", named(ev))
	}
}

func TestSIZEEvictsLargestFirst(t *testing.T) {
	c := MustNewID(SIZE, 100)
	mustPut(t, c, doc("small", 10))
	mustPut(t, c, doc("large", 60))
	mustPut(t, c, doc("mid", 30))
	ev := mustPut(t, c, doc("x", 20)) // over by 20 → evict "large"
	if len(ev) != 1 || ev[0].ID != k("large") {
		t.Fatalf("evicted %v, want [large]", named(ev))
	}
}

func TestGDSFPrefersSmallFrequentDocs(t *testing.T) {
	c := MustNewID(GDSF, 100)
	mustPut(t, c, doc("bigRare", 60))
	mustPut(t, c, doc("smallHot", 10))
	for i := 0; i < 5; i++ {
		c.Get(k("smallHot"))
	}
	ev := mustPut(t, c, doc("x", 40))
	if len(ev) != 1 || ev[0].ID != k("bigRare") {
		t.Fatalf("evicted %v, want [bigRare]", named(ev))
	}
}

func TestGDSFAgingAdmitsNewDocsEventually(t *testing.T) {
	// After many evictions the aging term L rises, so a fresh document can
	// outrank an old frequent one — the classic GDSF property.
	c := MustNewID(GDSF, 100)
	mustPut(t, c, doc("ancient", 50))
	for i := 0; i < 50; i++ {
		c.Get(k("ancient"))
	}
	// Churn through many one-shot docs to raise L.
	for i := 0; i < 2000; i++ {
		key := string(rune('a'+i%26)) + string(rune('0'+i%10)) + "churn"
		c.Put(IDDoc{ID: names.Intern(key), Size: 45})
	}
	if _, ok := c.Peek(k("ancient")); ok {
		t.Fatal("GDSF aging never displaced the ancient document")
	}
}

func TestOnEvictCallback(t *testing.T) {
	var evicted []string
	c := MustNewID(LRU, 20, IDOptions{OnEvict: func(d IDDoc) { evicted = append(evicted, names.String(d.ID)) }})
	mustPut(t, c, doc("a", 10))
	mustPut(t, c, doc("b", 10))
	mustPut(t, c, doc("c", 10)) // evicts a
	c.Remove(k("b"))            // must NOT fire the callback
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Fatalf("OnEvict saw %v, want [a]", evicted)
	}
}

func TestKeysEvictionOrderHeap(t *testing.T) {
	c := MustNewID(LFU, 100)
	mustPut(t, c, doc("a", 10))
	mustPut(t, c, doc("b", 10))
	mustPut(t, c, doc("c", 10))
	c.Get(k("b"))
	c.Get(k("b"))
	c.Get(k("c"))
	got := keys(c)
	want := []string{"a", "c", "b"} // freq 1, 2, 3
	if len(got) != len(want) {
		t.Fatalf("IDs() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs() = %v, want %v", got, want)
		}
	}
	// IDs must not disturb the live heap: evict and check victim.
	ev := mustPut(t, c, doc("big", 90))
	if len(ev) == 0 || ev[0].ID != k("a") {
		t.Fatalf("after IDs(), eviction order broken: %v", named(ev))
	}
}

func TestGetPeekMissReturnsZeroDoc(t *testing.T) {
	c := MustNewID(LRU, 10)
	if d, ok := c.Peek(k("x")); ok || d != (IDDoc{}) {
		t.Fatalf("Peek miss returned %v, %v", d, ok)
	}
}
