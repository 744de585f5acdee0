package trace

import (
	"fmt"
	"io"

	"baps/internal/intern"
)

// Stream yields a trace's requests in time order, in bounded batches, with
// document IDs already interned — the out-of-core counterpart of walking
// Trace.Requests. Implementations: SliceStream (an in-memory Trace),
// TextStream (the native text format, decoded incrementally), and BTRReader
// (the compact binary format).
//
// A Stream is single-use and not safe for concurrent use; replaying twice
// (e.g. a stats pass followed by the simulation pass) means opening the
// source twice.
type Stream interface {
	// Next fills buf with the next len(buf) requests (fewer at the tail)
	// and returns how many were produced. It returns 0, io.EOF at end of
	// stream — never a short batch together with io.EOF. Requests carry
	// Doc IDs; URL may be empty (the binary format streams records without
	// materializing URLs).
	Next(buf []Request) (int, error)

	// Name labels the trace.
	Name() string

	// NumClients reports the client-ID space [0, NumClients). Sources
	// that declare it up front (BTR header, SliceStream) report the final
	// value immediately; incremental text decoding reports the space seen
	// so far, final only after Next has returned io.EOF.
	NumClients() int

	// NumDocs reports the document-ID space [0, NumDocs), with the same
	// up-front/incremental split as NumClients.
	NumDocs() int

	// Close releases the underlying source. Close is idempotent.
	Close() error
}

// SliceStream adapts an in-memory Trace to the Stream interface.
type SliceStream struct {
	t   *Trace
	pos int
}

// NewSliceStream returns a Stream over t's requests. The trace is interned
// as a side effect if it was not already.
func NewSliceStream(t *Trace) *SliceStream {
	t.Intern()
	return &SliceStream{t: t}
}

// Next copies the next batch of requests out of the backing slice.
func (s *SliceStream) Next(buf []Request) (int, error) {
	n := copy(buf, s.t.Requests[s.pos:])
	if n == 0 {
		return 0, io.EOF
	}
	s.pos += n
	return n, nil
}

// Name labels the trace.
func (s *SliceStream) Name() string { return s.t.Name }

// NumClients reports the backing trace's client count.
func (s *SliceStream) NumClients() int { return s.t.NumClients }

// NumDocs reports the backing trace's document count.
func (s *SliceStream) NumDocs() int { return s.t.NumDocs() }

// Close is a no-op for the in-memory adapter.
func (s *SliceStream) Close() error { return nil }

// StreamBatchSize is the default request batch size for streaming replay:
// large enough to amortize per-batch overhead, small enough (a few hundred
// KiB) to stay cache- and memory-friendly.
const StreamBatchSize = 8192

// StreamStats computes Stats in a single pass over a stream without
// materializing the trace; Compute is this pass over a resident trace. The
// same request sequence gives bit-identical Stats from any source (every
// accumulation is an integer sum in stream order; the final ratios divide
// identical integers).
//
// Peak memory is O(UniqueDocs + NumClients + distinct (client, doc) pairs):
// the per-document state is a flat 16-byte slice and the first-sight pair
// map is a compact open-addressing table (~24 B/pair), not a Go map.
func StreamStats(s Stream) (Stats, error) {
	st := Stats{Name: s.Name()}
	type docState struct {
		size       int64
		lastClient int32
		seen       bool
	}
	docs := make([]docState, 0, maxInt(s.NumDocs(), 0))
	var clientSeen intern.U64Map // client⊕doc -> last size seen by that client
	var hitBytes int64
	hits := 0
	buf := make([]Request, StreamBatchSize)
	for {
		n, err := s.Next(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return Stats{}, err
		}
		for i := 0; i < n; i++ {
			r := &buf[i]
			if r.Client < 0 || r.Doc < 0 {
				return Stats{}, fmt.Errorf("trace %s: request %d: negative client %d or doc %d",
					st.Name, st.NumRequests, r.Client, int32(r.Doc))
			}
			st.NumRequests++
			st.TotalBytes += r.Size
			for r.Client >= len(st.ClientRequests) {
				st.ClientRequests = append(st.ClientRequests, 0)
				st.ClientInfiniteBytes = append(st.ClientInfiniteBytes, 0)
			}
			st.ClientRequests[r.Client]++
			for int(r.Doc) >= len(docs) {
				docs = append(docs, docState{})
			}
			d := &docs[r.Doc]
			if d.seen && d.size == r.Size {
				hits++
				hitBytes += r.Size
				if d.lastClient != int32(r.Client) {
					st.SharedRequests++
				}
			}
			if !d.seen {
				d.seen = true
				st.InfiniteCacheBytes += r.Size
			} else {
				st.InfiniteCacheBytes += r.Size - d.size
			}
			d.size = r.Size
			d.lastClient = int32(r.Client)
			ck := uint64(r.Client)<<32 | uint64(uint32(r.Doc))
			if prev, present := clientSeen.PutIfAbsent(ck, r.Size); !present {
				st.ClientInfiniteBytes[r.Client] += r.Size
			} else if prev != r.Size {
				st.ClientInfiniteBytes[r.Client] += r.Size - prev
				clientSeen.Put(ck, r.Size)
			}
		}
	}
	// Re-read the name after the drain: a text stream learns it from the
	// header comment during the first Next.
	st.Name = s.Name()
	st.NumClients = len(st.ClientRequests)
	if nc := s.NumClients(); nc > st.NumClients {
		// The source declares more clients than issued requests (legal:
		// silent clients still get cache capacity). Extend the per-client
		// vectors so their length equals the client-ID space.
		for len(st.ClientRequests) < nc {
			st.ClientRequests = append(st.ClientRequests, 0)
			st.ClientInfiniteBytes = append(st.ClientInfiniteBytes, 0)
		}
		st.NumClients = nc
	}
	st.UniqueDocs = len(docs)
	if nd := s.NumDocs(); nd > st.UniqueDocs {
		st.UniqueDocs = nd
	}
	if st.NumRequests > 0 {
		st.MaxHitRatio = float64(hits) / float64(st.NumRequests)
	}
	if st.TotalBytes > 0 {
		st.MaxByteHitRatio = float64(hitBytes) / float64(st.TotalBytes)
	}
	return st, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
