// Package trace defines the web request trace model consumed by the
// trace-driven simulator, together with parsers for on-disk trace formats,
// trace statistics (the columns of the paper's Table 1), and the client
// subsetting used by the §4.4 client-scaling experiments.
//
// The archived traces the paper used (NLANR uc/bo1 sanitized cache logs, the
// Boston University 1995/1998 client traces, and the CA*netII parent-cache
// logs) are no longer publicly retrievable; internal/synth generates seeded
// synthetic traces with per-paper-trace calibrated profiles instead. This
// package remains format-compatible with Squid access logs so that a real
// log can be replayed when one is available.
package trace

import (
	"fmt"
	"sort"

	"baps/internal/intern"
)

// Request is a single client web request.
type Request struct {
	// Time is the request time in seconds since the start of the trace
	// (fractional seconds allowed). Requests in a Trace are sorted by
	// non-decreasing Time.
	Time float64

	// Client is the dense client identifier, 0 <= Client < NumClients.
	Client int

	// URL identifies the requested document.
	URL string

	// Doc is the interned document ID for URL, dense in first-appearance
	// order, assigned by (*Trace).Intern. The simulator hot path keys every
	// cache and index structure by Doc; URL is retained for parsing,
	// serialization, and diagnostics.
	Doc intern.ID

	// Size is the size in bytes of the document body as delivered for
	// this request. A size different from the previously delivered size
	// for the same URL means the document was modified at the origin;
	// per the paper (§3.2) a cache hit on such a document is counted as
	// a miss.
	Size int64
}

// Trace is an ordered sequence of requests from a set of clients.
type Trace struct {
	// Name labels the trace (e.g. "nlanr-uc").
	Name string

	// NumClients is one more than the largest client id that occurs.
	NumClients int

	// Requests holds the requests in time order.
	Requests []Request

	// Syms maps between URLs and the dense Doc IDs carried by Requests.
	// Nil until Intern has run. Traces derived by SubsetClients share the
	// parent's table so Doc IDs stay comparable across scaling subsets.
	Syms *intern.Table
}

// Intern assigns dense document IDs to every request (idempotent: a trace
// whose Syms is already populated is returned as-is). All loaders and
// generators intern before handing a trace out; call this again only after
// appending raw requests manually.
func (t *Trace) Intern() *intern.Table {
	if t.Syms != nil {
		return t.Syms
	}
	syms := intern.NewTable(len(t.Requests) / 4)
	for i := range t.Requests {
		t.Requests[i].Doc = syms.Intern(t.Requests[i].URL)
	}
	t.Syms = syms
	return syms
}

// NumDocs returns the number of distinct documents, or 0 when the trace has
// not been interned.
func (t *Trace) NumDocs() int {
	if t.Syms == nil {
		return 0
	}
	return t.Syms.Len()
}

// Validate checks structural invariants: client ids within range, positive
// sizes, non-empty URLs, and non-decreasing timestamps.
func (t *Trace) Validate() error {
	prev := -1e300
	for i, r := range t.Requests {
		if r.Client < 0 || r.Client >= t.NumClients {
			return fmt.Errorf("trace %s: request %d: client %d out of range [0,%d)", t.Name, i, r.Client, t.NumClients)
		}
		if r.Size <= 0 {
			return fmt.Errorf("trace %s: request %d: non-positive size %d", t.Name, i, r.Size)
		}
		if r.URL == "" {
			return fmt.Errorf("trace %s: request %d: empty URL", t.Name, i)
		}
		if r.Time < prev {
			return fmt.Errorf("trace %s: request %d: time %g decreases below %g", t.Name, i, r.Time, prev)
		}
		if t.Syms != nil {
			if id, ok := t.Syms.Lookup(r.URL); !ok || id != r.Doc {
				return fmt.Errorf("trace %s: request %d: doc id %d inconsistent with symbol table for %q", t.Name, i, r.Doc, r.URL)
			}
		}
		prev = r.Time
	}
	return nil
}

// Stats summarizes a trace; these are the columns of the paper's Table 1.
type Stats struct {
	Name        string
	NumRequests int
	NumClients  int

	// TotalBytes is the sum of all requested body sizes.
	TotalBytes int64

	// UniqueDocs is the number of distinct URLs.
	UniqueDocs int

	// InfiniteCacheBytes is the total size needed to store every unique
	// requested document (at its last observed size) — the paper's
	// "infinite cache size".
	InfiniteCacheBytes int64

	// ClientInfiniteBytes[i] is client i's own infinite cache size: the
	// bytes needed to store every unique document that client requested.
	ClientInfiniteBytes []int64

	// ClientRequests[i] is the number of requests issued by client i. The
	// sharded replay uses these to derive per-shard warm-up cutoffs without
	// materializing the trace.
	ClientRequests []int64

	// MaxHitRatio is the hit ratio of an unbounded shared cache: a
	// request hits if the URL was requested before (by any client) and
	// its size is unchanged since the previous delivery.
	MaxHitRatio float64

	// MaxByteHitRatio is the corresponding byte hit ratio.
	MaxByteHitRatio float64

	// SharedRequests counts requests whose URL had previously been
	// requested by a *different* client with an unchanged size — an upper
	// bound on the remote-browser sharing opportunity the browsers-aware
	// proxy exploits.
	SharedRequests int
}

// AvgClientInfiniteBytes returns the mean per-client infinite cache size,
// which the paper uses to derive the "average" browser cache sizing.
func (s *Stats) AvgClientInfiniteBytes() int64 {
	if len(s.ClientInfiniteBytes) == 0 {
		return 0
	}
	var sum int64
	for _, b := range s.ClientInfiniteBytes {
		sum += b
	}
	return sum / int64(len(s.ClientInfiniteBytes))
}

// Compute derives Stats from a resident trace: it is StreamStats over the
// trace's requests. The trace is interned as a side effect (if it was not
// already). A request with a negative client or document ID panics.
func Compute(t *Trace) Stats {
	st, err := StreamStats(NewSliceStream(t))
	if err != nil {
		panic(err)
	}
	return st
}

// SubsetClients returns a new trace containing only the requests of the
// first fraction of clients in a deterministic shuffled order derived from
// seed; client ids are renumbered densely. This implements the paper's
// "relative number of clients" sweep (25 %, 50 %, 75 %, 100 %): the same seed
// yields nested subsets, so the 25 % client set is contained in the 50 % set
// and so on, matching how the paper grows the client population.
func SubsetClients(t *Trace, fraction float64, seed int64) *Trace {
	t.Intern()
	if fraction >= 1 {
		return t
	}
	if fraction <= 0 {
		return &Trace{Name: t.Name, NumClients: 0}
	}
	order := shuffledClients(t.NumClients, seed)
	n := int(float64(t.NumClients)*fraction + 0.5)
	if n < 1 {
		n = 1
	}
	keep := make(map[int]int, n) // old id -> new id
	chosen := append([]int(nil), order[:n]...)
	sort.Ints(chosen)
	for newID, oldID := range chosen {
		keep[oldID] = newID
	}
	out := &Trace{
		Name:       fmt.Sprintf("%s[%d%%]", t.Name, int(fraction*100+0.5)),
		NumClients: n,
		// Share the parent's symbol table: Doc IDs in the subset remain
		// valid (the ID space is a superset of the subset's documents),
		// and sweep workers avoid re-interning per scaling point.
		Syms: t.Syms,
	}
	for _, r := range t.Requests {
		if newID, ok := keep[r.Client]; ok {
			r.Client = newID
			out.Requests = append(out.Requests, r)
		}
	}
	return out
}

// Concat joins traces end-to-end in time, as the paper does with the two
// CA*netII daily logs ("the client IDs are consistent from day to day, so we
// concatenate two days logs together"). Client ids are shared across the
// inputs — client 3 in the second trace is client 3 in the first — and each
// subsequent trace's timestamps are shifted to start gapSec after the
// previous trace ends.
func Concat(gapSec float64, traces ...*Trace) *Trace {
	out := &Trace{}
	if len(traces) == 0 {
		return out
	}
	out.Name = traces[0].Name + "+concat"
	offset := 0.0
	for ti, t := range traces {
		if t.NumClients > out.NumClients {
			out.NumClients = t.NumClients
		}
		last := 0.0
		for _, r := range t.Requests {
			r.Time += offset
			out.Requests = append(out.Requests, r)
			last = r.Time
		}
		if ti < len(traces)-1 {
			offset = last + gapSec
		}
	}
	// Doc IDs copied from the inputs belong to per-input tables; re-intern
	// so the concatenated trace has one consistent dense ID space.
	out.Intern()
	return out
}

// shuffledClients returns a deterministic permutation of [0,n) using a
// simple multiplicative hash shuffle (independent of math/rand version
// behavior, so subsets are stable across Go releases).
func shuffledClients(n int, seed int64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	state := uint64(seed)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	next := func() uint64 {
		state ^= state >> 30
		state *= 0xBF58476D1CE4E5B9
		state ^= state >> 27
		state *= 0x94D049BB133111EB
		state ^= state >> 31
		return state
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return order
}
