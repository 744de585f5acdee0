// Package bufpool provides tiered, recycled byte buffers for the live
// serving path. Every streamed copy (origin relay, direct-forward relay,
// body drains) borrows a buffer from a size-classed sync.Pool instead of
// allocating, so sustained load stops churning the garbage collector with
// short-lived 64 KiB copy buffers.
//
// Three tiers cover the live system's shapes: 4 KiB for header-ish drains,
// 64 KiB for document copies (the sweet spot for loopback and LAN sockets),
// and 1 MiB for large-document relays. Get rounds a size hint up to the
// smallest sufficient tier; hints beyond the largest tier are clamped to it
// (callers loop their copies, so a bigger buffer is a throughput knob, not a
// correctness one).
package bufpool

import (
	"io"
	"sync"
)

// Tier sizes, smallest to largest.
const (
	TierSmall = 4 << 10
	TierMed   = 64 << 10
	TierLarge = 1 << 20
)

// pool is one size class. Buffers travel as *[]byte so sync.Pool never
// allocates an interface box per Put (staticcheck SA6002).
type pool struct {
	size int
	p    sync.Pool
}

func (t *pool) get() *[]byte {
	if b, ok := t.p.Get().(*[]byte); ok {
		return b
	}
	b := make([]byte, t.size)
	return &b
}

var pools = [3]pool{
	{size: TierSmall},
	{size: TierMed},
	{size: TierLarge},
}

// Get borrows a buffer of at least min(sizeHint, TierLarge) bytes, choosing
// the smallest tier that covers the hint. Hints <= 0 get the medium tier
// (the general-purpose copy size). Return it with Put.
func Get(sizeHint int) *[]byte {
	return tierFor(sizeHint).get()
}

// Put returns a buffer obtained from Get. Buffers of foreign capacities are
// dropped rather than pooled, so a resliced or hand-made buffer can't poison
// a tier.
func Put(b *[]byte) {
	if b == nil {
		return
	}
	for i := range pools {
		if cap(*b) == pools[i].size {
			*b = (*b)[:pools[i].size]
			pools[i].p.Put(b)
			return
		}
	}
}

// CopySized is io.CopyBuffer with a pooled buffer, the allocation-free way
// to stream a document between sockets. The size hint selects the buffer
// tier: the expected body length when known, -1 for the medium tier.
func CopySized(dst io.Writer, src io.Reader, sizeHint int64) (int64, error) {
	hint := TierMed
	if sizeHint >= 0 && sizeHint < TierMed {
		hint = int(sizeHint)
	} else if sizeHint > TierMed {
		hint = TierLarge
	}
	buf := Get(hint)
	defer Put(buf)
	// Wrappers mask ReadFrom/WriteTo so io.CopyBuffer actually uses the
	// pooled buffer instead of delegating (and then ignoring it).
	return io.CopyBuffer(onlyWriter{dst}, onlyReader{src}, *buf)
}

type onlyWriter struct{ io.Writer }
type onlyReader struct{ io.Reader }

func tierFor(sizeHint int) *pool {
	switch {
	case sizeHint > 0 && sizeHint <= TierSmall:
		return &pools[0]
	case sizeHint > TierMed:
		return &pools[2]
	default:
		return &pools[1]
	}
}
