package index

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"baps/internal/intern"
)

// TestShardedMatchesIndex runs the same randomized operation sequence
// against a Sharded directory and a plain Index and asserts they agree on
// lookups, ordering, and counts — the sharding must be invisible to callers.
func TestShardedMatchesIndex(t *testing.T) {
	for _, strat := range []Strategy{SelectMostRecent, SelectLeastLoaded, SelectFirst} {
		t.Run(strat.String(), func(t *testing.T) {
			plain := New(strat)
			sharded := NewSharded(strat, 4)
			rng := rand.New(rand.NewSource(7))
			const clients, docs = 8, 64
			for op := 0; op < 4_000; op++ {
				client := rng.Intn(clients)
				doc := intern.ID(rng.Intn(docs))
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					e := Entry{
						Client:  client,
						Doc:     doc,
						Size:    int64(100 + rng.Intn(900)),
						Stamp:   float64(op),
						Version: int64(rng.Intn(3)),
					}
					plain.Add(e)
					sharded.Add(e)
				case 4:
					if got, want := sharded.Remove(client, doc), plain.Remove(client, doc); got != want {
						t.Fatalf("op %d: Remove(%d,%d) = %v, plain %v", op, client, doc, got, want)
					}
				case 5:
					plain.Quarantine(client)
					sharded.Quarantine(client)
				case 6:
					plain.Unquarantine(client)
					sharded.Unquarantine(client)
				case 7:
					if got, want := sharded.DropClient(client), plain.DropClient(client); got != want {
						t.Fatalf("op %d: DropClient(%d) = %d, plain %d", op, client, got, want)
					}
				default:
					requester := rng.Intn(clients)
					got := sharded.Ordered(doc, requester)
					want := plain.Ordered(doc, requester)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("op %d: Ordered(%d,%d) = %v, plain %v", op, doc, requester, got, want)
					}
					if has, want := sharded.HasHolder(doc), len(plain.Ordered(doc, -1)) > 0; has != want {
						t.Fatalf("op %d: HasHolder(%d) = %v, Ordered says %v", op, doc, has, want)
					}
				}
			}
			if sharded.Len() != plain.Len() {
				t.Fatalf("Len: sharded %d, plain %d", sharded.Len(), plain.Len())
			}
			if sharded.URLCount() != plain.URLCount() {
				t.Fatalf("URLCount: sharded %d, plain %d", sharded.URLCount(), plain.URLCount())
			}
			for c := 0; c < clients; c++ {
				if got, want := len(sharded.ClientDocs(c)), len(plain.ClientDocs(c)); got != want {
					t.Fatalf("ClientDocs(%d): sharded %d, plain %d", c, got, want)
				}
			}
		})
	}
}

// TestHasHolderExcludesQuarantined: a document whose only holders are
// quarantined has no holder, as it has no Ordered candidate; re-admission
// restores it; and the check allocates nothing.
func TestHasHolderExcludesQuarantined(t *testing.T) {
	x := NewSharded(SelectMostRecent, 4)
	doc := intern.ID(5)
	if x.HasHolder(doc) || x.HasHolder(intern.ID(1<<20)) {
		t.Fatal("empty index reports a holder")
	}
	x.Add(Entry{Client: 1, Doc: doc})
	x.Add(Entry{Client: 2, Doc: doc})
	x.Quarantine(1)
	if !x.HasHolder(doc) {
		t.Fatal("live holder 2 not seen")
	}
	x.Quarantine(2)
	if x.HasHolder(doc) {
		t.Fatal("quarantined holders counted")
	}
	x.Unquarantine(2)
	if !x.HasHolder(doc) {
		t.Fatal("re-admitted holder not seen")
	}
	if allocs := testing.AllocsPerRun(100, func() { x.HasHolder(doc) }); allocs != 0 {
		t.Fatalf("HasHolder allocates %.0f times", allocs)
	}
}

// TestShardedConcurrentChurn hammers one Sharded directory from many
// goroutines mixing every mutation the live proxy performs — adds, removes,
// ordered reads, allocation-free reads, quarantine flips, and full client
// drops/resyncs — and relies on the race detector (make check runs this
// package under -race) to catch locking mistakes across the shard/clientTable
// boundary.
func TestShardedConcurrentChurn(t *testing.T) {
	x := NewSharded(SelectLeastLoaded, 8)
	const (
		clients = 16
		docs    = 256
		opsPer  = 2_000
	)
	var wg sync.WaitGroup
	// Writers: per-client add/remove churn.
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(client)))
			for i := 0; i < opsPer; i++ {
				doc := intern.ID(rng.Intn(docs))
				if rng.Intn(3) == 0 {
					x.Remove(client, doc)
				} else {
					x.Add(Entry{Client: client, Doc: doc, Size: 100, Stamp: float64(i)})
				}
			}
		}(c)
	}
	// Readers: strategy-ordered candidate lists, both allocating and
	// buffer-reusing forms, plus point lookups and client scans.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			var buf []Entry
			for i := 0; i < opsPer; i++ {
				doc := intern.ID(rng.Intn(docs))
				requester := rng.Intn(clients)
				switch i % 4 {
				case 0:
					x.Ordered(doc, requester)
				case 1:
					buf = x.AppendOrdered(buf[:0], doc, requester, 0)
				case 2:
					x.Lookup(doc)
					x.Has(requester, doc)
				default:
					x.ClientDocs(requester)
					x.OrderedQuarantined(doc, requester)
				}
			}
		}(int64(r))
	}
	// Quarantine flipper: the health tracker's view of failing peers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(777))
		for i := 0; i < opsPer; i++ {
			client := rng.Intn(clients)
			if i%2 == 0 {
				x.Quarantine(client)
			} else {
				x.Unquarantine(client)
			}
			x.AccountServe(client)
			x.Served(client)
		}
	}()
	// Churner: clients leaving and rejoining with a resync snapshot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(888))
		for i := 0; i < opsPer/4; i++ {
			client := rng.Intn(clients)
			x.DropClient(client)
			entries := make([]Entry, 0, 4)
			for j := 0; j < 4; j++ {
				entries = append(entries, Entry{
					Client: client,
					Doc:    intern.ID(rng.Intn(docs)),
					Size:   100,
					Stamp:  float64(i),
				})
			}
			x.ResyncClient(client, entries)
			x.Len()
		}
	}()
	wg.Wait()

	// Steady-state sanity: every surviving entry is reachable and counts
	// line up across shards.
	total := 0
	for c := 0; c < clients; c++ {
		x.Unquarantine(c)
		for _, e := range x.ClientDocs(c) {
			if !x.Has(c, e.Doc) {
				t.Fatalf("client %d doc %d in ClientDocs but Has is false", c, e.Doc)
			}
			total++
		}
	}
	if got := x.Len(); got != total {
		t.Fatalf("Len %d != sum of ClientDocs %d", got, total)
	}
}

// TestShardedClientTableGrowth races the client table's growth path: one
// goroutine registers clients far past the table's first chunk (each new
// client's entries land on shard 0 and its first AccountServe grows the
// table), while others run AppendOrdered under least-loaded ordering (which
// reads served counts), AccountServe and Quarantine for low-numbered
// clients on the other shards. Under -race this is the check that readers
// on one shard never see a chunk move under them while another grows it.
func TestShardedClientTableGrowth(t *testing.T) {
	const (
		shards  = 4
		clients = 8 << clientChunkBits // eight chunks
	)
	x := NewSharded(SelectLeastLoaded, shards)
	for c := 0; c < 8; c++ {
		for d := 1; d < shards; d++ {
			x.Add(Entry{Client: c, Doc: intern.ID(d), Size: 1})
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for c := 8; c < clients; c++ {
			x.Add(Entry{Client: c, Doc: 0, Size: 1})
			x.AccountServe(c)
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var buf []Entry
			for i := 0; i < 4000; i++ {
				doc := intern.ID(1 + (r+i)%(shards-1))
				buf = x.AppendOrdered(buf[:0], doc, -1, 0)
				if len(buf) == 0 {
					t.Errorf("doc %d lost its holders", doc)
					return
				}
				x.AccountServe(i % 8)
				if i%64 == 0 {
					x.Quarantine(i % 8)
					x.Unquarantine(i % 8)
				}
			}
		}(r)
	}
	wg.Wait()
	if got := len(x.Lookup(0)); got != clients-8 {
		t.Fatalf("doc 0 has %d holders, want %d", got, clients-8)
	}
	for _, c := range []int{8, clients / 2, clients - 1} {
		if x.Served(c) != 1 {
			t.Fatalf("Served(%d) = %d after growth, want 1", c, x.Served(c))
		}
	}
	if got := x.Len(); got != 8*(shards-1)+clients-8 {
		t.Fatalf("Len = %d, want %d", got, 8*(shards-1)+clients-8)
	}
}
