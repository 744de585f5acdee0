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
// incrementally as a trace.Stream, with memory bounded by the touched
// document universe and the client population — never by the request
// count — so a 10^6-client trace streams straight into a .btr writer
// without ever being resident. Generate drains the same generator into a
// resident trace; the two differ only in whether the requests are held.
//
// Documents live as integer keys, not URL strings. Emitted requests carry
// dense first-appearance Doc IDs and empty URL strings (like a .btr stream
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

	// Document registry, dense in first-appearance order. sizedVer is the
	// version whose realized size is cached (-1 = none yet): sizes must be
	// sticky per version so a recency re-reference sees the fetched size.
	docIdx   intern.U64Map // docKey -> dense doc ID
	keys     []int64       // doc ID -> docKey
	ver      []int64       // doc ID -> current origin version
	sizedVer []int64       // doc ID -> version the cached size realizes
	sizes    []int64       // doc ID -> realized size

	// Per-client recency rings over doc IDs, flattened to one slab.
	ring    []int32
	ringPos []int32
	ringLen []int32

	// urlBuf is reused to spell each URL: to hash a new (document,
	// version) and to regenerate a URL for URLAt.
	urlBuf []byte
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
func (g *GenStream) NumDocs() int { return len(g.keys) }

// NumRequests reports the total request count the stream will emit.
func (g *GenStream) NumRequests() int { return g.p.Requests }

// Close implements trace.Stream.
func (g *GenStream) Close() error { return nil }

// URLAt regenerates the URL of a generated document ID (valid for IDs below
// NumDocs at the time of the call).
func (g *GenStream) URLAt(doc int) string {
	g.urlBuf = g.appendURL(g.urlBuf[:0], g.keys[doc])
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
	rankFrac := 0.5 // neutral for recency re-references
	base := client * g.window
	rl := int(g.ringLen[client])
	if rl > 0 && g.rng.Float64() < p.RecencyFraction {
		id = g.ring[base+pickRecent(g.rng, rl, int(g.ringPos[client]), p.RecencyGeomP)]
		rankFrac = -1 // size comes from the per-version cache below
	} else if p.PrivateDocs == 0 || g.rng.Float64() < p.SharedFraction {
		rank := g.shared.sample(g.rng)
		id = g.intern(int64(rank))
		rankFrac = float64(rank) / float64(p.SharedDocs)
	} else {
		rank := g.private.sample(g.rng)
		key := int64(p.SharedDocs) + int64(client)*int64(p.PrivateDocs) + int64(rank)
		id = g.intern(key)
		rankFrac = float64(rank) / float64(p.PrivateDocs)
	}

	if g.rng.Float64() < p.ModifyRate {
		g.ver[id]++
	}
	if g.sizedVer[id] != g.ver[id] {
		g.urlBuf = g.appendURL(g.urlBuf[:0], g.keys[id])
		sz := g.sizer.size(g.urlBuf, g.ver[id])
		if p.SizeRankBias != 0 && rankFrac >= 0 {
			sz = clipSize(int64(float64(sz)*math.Exp(p.SizeRankBias*(rankFrac-0.5))), p.MinDocBytes, p.MaxDocBytes)
		}
		g.sizes[id] = sz
		g.sizedVer[id] = g.ver[id]
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
		Size:   g.sizes[id],
	}
}

// intern maps a document key to its dense first-appearance ID, registering
// fresh documents.
func (g *GenStream) intern(key int64) int32 {
	id := int32(len(g.keys))
	if resident, present := g.docIdx.PutIfAbsent(uint64(key), int64(id)); present {
		return int32(resident)
	}
	g.keys = append(g.keys, key)
	g.ver = append(g.ver, 0)
	g.sizedVer = append(g.sizedVer, -1)
	g.sizes = append(g.sizes, 0)
	return id
}

// appendURL appends the URL a document key denotes to b: shared keys are
// ranks in [0, SharedDocs); private keys pack (client, rank) above them.
func (g *GenStream) appendURL(b []byte, key int64) []byte {
	if key < int64(g.p.SharedDocs) {
		b = append(b, "http://shared.example/d"...)
		return strconv.AppendInt(b, key, 10)
	}
	k := key - int64(g.p.SharedDocs)
	pd := int64(g.p.PrivateDocs)
	b = append(b, "http://c"...)
	b = strconv.AppendInt(b, k/pd, 10)
	b = append(b, ".example/d"...)
	return strconv.AppendInt(b, k%pd, 10)
}
