package index

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"baps/internal/intern"
)

// directory is the surface Index and Sharded share.
type directory interface {
	Add(Entry)
	Remove(client int, doc intern.ID) bool
	ApplyBatch(client int, deltas []Delta)
	ResyncClient(client int, entries []Entry)
	DropClient(client int) int
	PruneExpired(now float64) int
	AccountServe(client int)
	AppendOrdered(buf []Entry, doc intern.ID, requester int, now float64) []Entry
	Lookup(doc intern.ID) []Entry
	Get(client int, doc intern.ID) (Entry, bool)
	ClientDocs(client int) []Entry
	Held(client int) int
	Len() int
	URLCount() int
}

// indexModel is the reference the model test holds a directory to: every
// document's holders in a map, and every client's served count.
type indexModel struct {
	strategy Strategy
	holders  map[intern.ID]map[int]Entry
	served   map[int]int64
}

func (m *indexModel) add(e Entry) {
	if m.holders[e.Doc] == nil {
		m.holders[e.Doc] = map[int]Entry{}
	}
	m.holders[e.Doc][e.Client] = e
}

func (m *indexModel) remove(client int, doc intern.ID) bool {
	_, ok := m.holders[doc][client]
	delete(m.holders[doc], client)
	if len(m.holders[doc]) == 0 {
		delete(m.holders, doc)
	}
	return ok
}

func (m *indexModel) drop(client int) int {
	n := 0
	for doc := range m.holders {
		if m.remove(client, doc) {
			n++
		}
	}
	return n
}

// lookup is doc's holders sorted by client id.
func (m *indexModel) lookup(doc intern.ID) []Entry {
	var out []Entry
	for _, e := range m.holders[doc] {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b Entry) int { return a.Client - b.Client })
	return out
}

// ordered is AppendOrdered's answer, written from its definition.
func (m *indexModel) ordered(doc intern.ID, requester int, now float64) []Entry {
	var out []Entry
	for _, e := range m.lookup(doc) {
		if e.Client != requester && (now == 0 || e.Expire == 0 || now < e.Expire) {
			out = append(out, e)
		}
	}
	key := func(e Entry) float64 {
		switch m.strategy {
		case SelectMostRecent:
			return -e.Stamp
		case SelectLeastLoaded:
			return float64(m.served[e.Client])
		}
		return 0
	}
	slices.SortStableFunc(out, func(a, b Entry) int {
		ka, kb := key(a), key(b)
		switch {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		}
		return 0
	})
	return out
}

const (
	modelClients = 10
	modelDocs    = 24
)

// modelOps decodes data as a sequence of directory operations.
type modelOps struct {
	data []byte
	i    int
}

func (o *modelOps) more() bool { return o.i < len(o.data) }

func (o *modelOps) byte() int {
	if o.i >= len(o.data) {
		return 0
	}
	o.i++
	return int(o.data[o.i-1])
}

func (o *modelOps) client() int { return o.byte() % modelClients }

// doc is mostly one of modelDocs, now and then far beyond them, so the head
// table grows on demand.
func (o *modelOps) doc() intern.ID {
	if b := o.byte(); b < 250 {
		return intern.ID(b % modelDocs)
	} else {
		return intern.ID(4*b - 700)
	}
}

func (o *modelOps) entry(client int) Entry {
	e := Entry{Client: client, Doc: o.doc(), Size: int64(o.byte()), Version: int64(o.byte() % 4), Stamp: float64(o.byte() % 8)}
	if b := o.byte(); b%3 == 0 {
		e.Expire = float64(1 + b%10)
	}
	return e
}

// runIndexModel drives d through the operations data encodes, holding it to
// the reference model after every one.
func runIndexModel(t *testing.T, d directory, strategy Strategy, data []byte) {
	m := &indexModel{strategy: strategy, holders: map[intern.ID]map[int]Entry{}, served: map[int]int64{}}
	o := &modelOps{data: data}
	var buf []Entry
	for op := 0; o.more(); op++ {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%T %v, op %d: %s", d, strategy, op, fmt.Sprintf(format, args...))
		}
		switch o.byte() % 16 {
		case 0, 1, 2, 3, 4, 5:
			e := o.entry(o.client())
			d.Add(e)
			m.add(e)
		case 6:
			client, doc := o.client(), o.doc()
			if got, want := d.Remove(client, doc), m.remove(client, doc); got != want {
				fail("Remove(%d, %d) = %v, model %v", client, doc, got, want)
			}
		case 7:
			client := o.client()
			deltas := make([]Delta, 1+o.byte()%5)
			for i := range deltas {
				deltas[i] = Delta{Entry: o.entry(o.client()), Remove: o.byte()%3 == 0}
				if deltas[i].Remove {
					m.remove(client, deltas[i].Doc)
				} else {
					e := deltas[i].Entry
					e.Client = client
					m.add(e)
				}
			}
			d.ApplyBatch(client, deltas)
		case 8:
			client := o.client()
			entries := make([]Entry, o.byte()%6)
			m.drop(client)
			for i := range entries {
				entries[i] = o.entry(o.client())
				e := entries[i]
				e.Client = client
				m.add(e)
			}
			d.ResyncClient(client, entries)
		case 9:
			client := o.client()
			want := m.drop(client)
			delete(m.served, client)
			if got := d.DropClient(client); got != want {
				fail("DropClient(%d) = %d, model %d", client, got, want)
			}
		case 10:
			now := float64(1 + o.byte()%10)
			want := 0
			for doc, hs := range m.holders {
				for c, e := range hs {
					if e.Expire != 0 && now >= e.Expire {
						m.remove(c, doc)
						want++
					}
				}
			}
			if got := d.PruneExpired(now); got != want {
				fail("PruneExpired(%g) = %d, model %d", now, got, want)
			}
		case 11, 12:
			client := o.client()
			d.AccountServe(client)
			m.served[client]++
		case 13:
			// Rarely, so that documents gather many holders between resets.
			if x, ok := d.(*Index); ok && o.byte() < 32 {
				x.Reset()
				clear(m.holders)
				clear(m.served)
			}
		case 14:
			if x, ok := d.(*Index); ok {
				x.Grow(o.byte() * 8)
			}
		case 15:
			client, doc := o.client(), o.doc()
			got, gok := d.Get(client, doc)
			want, wok := m.holders[doc][client]
			if gok != wok || got != want {
				fail("Get(%d, %d) = %+v %v, model %+v %v", client, doc, got, gok, want, wok)
			}
		}

		requester := op % (modelClients + 1)
		now := float64(op % 11)
		entries, docs := 0, 0
		for doc := intern.ID(0); doc < modelDocs; doc++ {
			if got, want := d.Lookup(doc), m.lookup(doc); !slices.Equal(got, want) {
				fail("Lookup(%d) = %v, model %v", doc, got, want)
			}
			buf = d.AppendOrdered(buf[:0], doc, requester, now)
			if want := m.ordered(doc, requester, now); !slices.Equal(buf, want) {
				fail("AppendOrdered(%d, %d, %g) = %v, model %v", doc, requester, now, buf, want)
			}
		}
		for doc, hs := range m.holders {
			entries += len(hs)
			docs++
			if doc >= modelDocs && !slices.Equal(d.Lookup(doc), m.lookup(doc)) {
				fail("Lookup(%d) = %v, model %v", doc, d.Lookup(doc), m.lookup(doc))
			}
		}
		for client := 0; client <= modelClients; client++ {
			var want []Entry
			for _, hs := range m.holders {
				if e, ok := hs[client]; ok {
					want = append(want, e)
				}
			}
			slices.SortFunc(want, func(a, b Entry) int { return int(a.Doc) - int(b.Doc) })
			if got := d.ClientDocs(client); !slices.Equal(got, want) {
				fail("ClientDocs(%d) = %v, model %v", client, got, want)
			}
			if got := d.Held(client); got != len(want) {
				fail("Held(%d) = %d, model %d", client, got, len(want))
			}
		}
		if d.Len() != entries || d.URLCount() != docs {
			fail("Len %d, URLCount %d; model %d, %d", d.Len(), d.URLCount(), entries, docs)
		}
	}
}

// directories builds the directories the model test drives: a plain Index
// and a Sharded one, under strategy.
func directories(strategy Strategy) []directory {
	return []directory{New(strategy), NewSharded(strategy, 3)}
}

// TestIndexModel drives Index and Sharded, under every strategy, through
// random sequences of every mutating operation against a map-based model,
// comparing every read after each operation.
func TestIndexModel(t *testing.T) {
	for _, strategy := range []Strategy{SelectMostRecent, SelectLeastLoaded, SelectFirst} {
		for seed := int64(1); seed <= 2; seed++ {
			data := make([]byte, 3000)
			rand.New(rand.NewSource(seed)).Read(data)
			for _, d := range directories(strategy) {
				runIndexModel(t, d, strategy, data)
			}
		}
	}
}

// FuzzIndex is TestIndexModel over fuzzed operation sequences; the first
// byte picks the strategy.
func FuzzIndex(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		data := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		strategy := Strategy(int(data[0]) % 3)
		for _, d := range directories(strategy) {
			runIndexModel(t, d, strategy, data[1:])
		}
	})
}
