package synth

import (
	"io"
	"math"
	"math/rand"
	"strconv"

	"baps/internal/intern"
	"baps/internal/trace"
)

// GenStream is the synthetic trace generator. It produces a profile's trace
// incrementally as a trace.Stream, with memory bounded by the profile's
// document key space and client population — never by the request count —
// so a 10^6-client trace streams straight into a .btr writer without ever
// being resident. Generate drains the same generator into a resident trace;
// the two differ only in whether the requests are held.
//
// Documents live as integer keys, not URL strings: shared ranks in
// [0, SharedDocs), then each client's private ranks above them. The key
// space is dense, so the registry from key to document ID is one 4-byte
// slot per key, allocated up front. Emitted requests carry dense
// first-appearance Doc IDs and empty URL strings (like a .btr stream
// without its symbol table); URLAt regenerates the URL for a document ID on
// demand, for symbol-table emission after the stream drains.
type GenStream struct {
	p       Profile
	rng     *rand.Rand
	shared  *zipf
	private *zipf
	clients *zipf
	sizer   *sizer
	meanIA  float64
	now     float64
	emitted int
	window  int

	// Document registry: ids maps a document key to its ID+1 (0 = not yet
	// seen), and docs holds each document's record, dense in
	// first-appearance order.
	ids  []int32
	docs []docRec

	// Per-client recency rings over doc IDs, flattened to one slab.
	ring    []int32
	ringPos []int32
	ringLen []int32

	// urlBuf is reused to spell each URL: to hash a new (document,
	// version) and to regenerate a URL for URLAt.
	urlBuf []byte
}

// docRec is one generated document. The size realizes the current version:
// it is drawn when the document first appears and redrawn whenever a
// modification bumps the version, so a recency re-reference sees the size
// last fetched.
type docRec struct {
	size int64
	ver  int64
	key  int32
}

// NewStream validates the profile and readies a generator.
func NewStream(p Profile) (*GenStream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	window := p.RecencyWindow
	if window <= 0 {
		window = 64
	}
	g := &GenStream{
		p:       p,
		rng:     rand.New(rand.NewSource(p.Seed)),
		shared:  newZipf(p.SharedDocs, p.ZipfAlpha),
		clients: newZipf(p.Clients, p.ClientZipfAlpha),
		sizer:   newSizer(p),
		meanIA:  p.DurationSec / float64(p.Requests),
		window:  window,
		ids:     make([]int32, p.SharedDocs+p.Clients*p.PrivateDocs), // the key space
		ring:    make([]int32, p.Clients*window),
		ringPos: make([]int32, p.Clients),
		ringLen: make([]int32, p.Clients),
	}
	if p.PrivateDocs > 0 {
		g.private = newZipf(p.PrivateDocs, p.PrivateZipfAlpha)
	}
	return g, nil
}

// Name implements trace.Stream.
func (g *GenStream) Name() string { return g.p.Name }

// NumClients implements trace.Stream; the population is known up front.
func (g *GenStream) NumClients() int { return g.p.Clients }

// NumDocs implements trace.Stream; it grows as generation discovers
// documents and is final only once Next has returned io.EOF.
func (g *GenStream) NumDocs() int { return len(g.docs) }

// NumRequests reports the total request count the stream will emit.
func (g *GenStream) NumRequests() int { return g.p.Requests }

// Close implements trace.Stream.
func (g *GenStream) Close() error { return nil }

// URLAt regenerates the URL of a generated document ID (valid for IDs below
// NumDocs at the time of the call).
func (g *GenStream) URLAt(doc int) string {
	g.urlBuf = g.appendURL(g.urlBuf[:0], int(g.docs[doc].key))
	return string(g.urlBuf)
}

// Next implements trace.Stream.
func (g *GenStream) Next(buf []trace.Request) (int, error) {
	remaining := g.p.Requests - g.emitted
	if remaining <= 0 {
		return 0, io.EOF
	}
	n := len(buf)
	if n > remaining {
		n = remaining
	}
	if n == 0 {
		return 0, nil
	}
	for i := 0; i < n; i++ {
		g.gen(&buf[i])
	}
	g.emitted += n
	return n, nil
}

// gen produces the next request. The RNG draws are short-circuited: no
// recency draw while the ring is empty, no shared/private draw on a recency
// re-reference or when there is no private universe.
func (g *GenStream) gen(r *trace.Request) {
	p := &g.p
	g.now += g.rng.ExpFloat64() * g.meanIA
	client := g.clients.sample(g.rng)

	var id int32
	fresh := false
	rankFrac := 0.5 // neutral for recency re-references
	base := client * g.window
	rl := int(g.ringLen[client])
	if rl > 0 && g.rng.Float64() < p.RecencyFraction {
		id = g.ring[base+pickRecent(g.rng, rl, int(g.ringPos[client]), p.RecencyGeomP)]
		rankFrac = -1 // keeps the size last fetched unless modified below
	} else if p.PrivateDocs == 0 || g.rng.Float64() < p.SharedFraction {
		rank := g.shared.sample(g.rng)
		id, fresh = g.intern(rank)
		rankFrac = float64(rank) / float64(p.SharedDocs)
	} else {
		rank := g.private.sample(g.rng)
		id, fresh = g.intern(p.SharedDocs + client*p.PrivateDocs + rank)
		rankFrac = float64(rank) / float64(p.PrivateDocs)
	}

	d := &g.docs[id]
	modified := g.rng.Float64() < p.ModifyRate
	if modified {
		d.ver++
	}
	if fresh || modified {
		g.urlBuf = g.appendURL(g.urlBuf[:0], int(d.key))
		sz := g.sizer.size(g.urlBuf, d.ver)
		if p.SizeRankBias != 0 && rankFrac >= 0 {
			sz = clipSize(int64(float64(sz)*math.Exp(p.SizeRankBias*(rankFrac-0.5))), p.MinDocBytes, p.MaxDocBytes)
		}
		d.size = sz
	}

	if rl < g.window {
		g.ring[base+rl] = id
		g.ringLen[client] = int32(rl + 1)
		g.ringPos[client] = int32(rl)
	} else {
		pos := (int(g.ringPos[client]) + 1) % g.window
		g.ringPos[client] = int32(pos)
		g.ring[base+pos] = id
	}

	*r = trace.Request{
		Time:   g.now,
		Client: client,
		Doc:    intern.ID(id),
		Size:   d.size,
	}
}

// intern maps a document key to its dense first-appearance ID, registering
// a fresh document.
func (g *GenStream) intern(key int) (id int32, fresh bool) {
	if v := g.ids[key]; v != 0 {
		return v - 1, false
	}
	id = int32(len(g.docs))
	g.ids[key] = id + 1
	g.docs = append(g.docs, docRec{key: int32(key)})
	return id, true
}

// appendURL appends the URL a document key denotes to b: shared keys are
// ranks in [0, SharedDocs); private keys pack (client, rank) above them.
func (g *GenStream) appendURL(b []byte, key int) []byte {
	if key < g.p.SharedDocs {
		b = append(b, "http://shared.example/d"...)
		return strconv.AppendInt(b, int64(key), 10)
	}
	k := key - g.p.SharedDocs
	pd := g.p.PrivateDocs
	b = append(b, "http://c"...)
	b = strconv.AppendInt(b, int64(k/pd), 10)
	b = append(b, ".example/d"...)
	return strconv.AppendInt(b, int64(k%pd), 10)
}
