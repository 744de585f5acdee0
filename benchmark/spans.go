package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names, outermost first. Every span is taken from the benchmark's own
// files, around a call into a layer; nothing inside internal/ is edited.
const (
	spanClientFetch = "client.fetch"     // raw client: one GET /fetch
	spanAgentGet    = "agent.get"        // browser agent: one Agent.Get
	spanOutOrigin   = "proxy.out.origin" // proxy's outbound round trip to the origin
	spanOutPeer     = "proxy.out.peer"   // proxy's outbound round trip to a browser's peer server
	spanOriginServe = "origin.serve"     // origin handler
)

// span is one timed interval. Parent is the index of the span that caused
// it (-1 for a root, or for background work such as revalidation); spans of
// one request share Req, the root's index.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the recorder's epoch
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	key    string // document URL: what links a child to its parent
}

// recorder keeps spans in memory; they are linked and written once the run
// is over. Off, add is one atomic load.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(name, key string, start, end time.Time) {
	if r == nil || !r.on.Load() {
		return
	}
	s := span{Name: name, Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)), Parent: -1, Req: -1, key: key}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// tracedTransport is handed to the proxy as Config.Transport: every
// outbound round trip (headers only; the body streams after RoundTrip
// returns and lands in the proxy's self time) becomes a span, classified by
// destination host.
type tracedTransport struct {
	next       http.RoundTripper
	rec        *recorder
	originHost string
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.on.Load() {
		return t.next.RoundTrip(req)
	}
	name, key := spanOutPeer, req.URL.Query().Get("url")
	if req.URL.Host == t.originHost {
		name, key = spanOutOrigin, req.URL.String()
	}
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	t.rec.add(name, key, start, time.Now())
	return resp, err
}

// CloseIdleConnections lets http.Client.CloseIdleConnections reach the pool
// behind the wrapper; the proxy relies on it when it shuts down.
func (t *tracedTransport) CloseIdleConnections() {
	if ci, ok := t.next.(interface{ CloseIdleConnections() }); ok {
		ci.CloseIdleConnections()
	}
}

// traceOrigin wraps the benchmark-owned origin's handler. Its time is
// fixture cost: the layer table subtracts it from the proxy's origin wait.
func traceOrigin(next http.Handler, rec *recorder) http.Handler {
	if rec == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		rec.add(spanOriginServe, "http://"+r.Host+r.URL.RequestURI(), start, time.Now())
	})
}

// parentOf says which span name can cause a child of the given name.
func parentOf(child string) []string {
	switch child {
	case spanOutOrigin, spanOutPeer:
		return []string{spanClientFetch, spanAgentGet}
	case spanOriginServe:
		return []string{spanOutOrigin}
	}
	return nil
}

// linkSpans matches each child to the parent with the same document URL
// whose interval contains it. With at most two requests in flight that is
// unambiguous except for coalesced duplicates (two fetches of one URL, one
// outbound trip), which attach to the earlier parent. Children nothing
// contains (background revalidation, prefetch) stay roots with Parent -1.
func linkSpans(spans []span) {
	byKey := make(map[string][]int)
	for i := range spans {
		if parentOf(spans[i].Name) == nil {
			spans[i].Req = i
		}
		byKey[spans[i].key] = append(byKey[spans[i].key], i)
	}
	// Parents are linked before their children need Req: origin.serve
	// looks at proxy.out.origin, so resolve that level first.
	for _, level := range []string{spanOutOrigin, spanOutPeer, spanOriginServe} {
		for i := range spans {
			c := &spans[i]
			if c.Name != level {
				continue
			}
			best := -1
			for _, j := range byKey[c.key] {
				p := &spans[j]
				if !slices.Contains(parentOf(c.Name), p.Name) || p.Start > c.Start || p.End < c.End {
					continue
				}
				if best < 0 || p.Start < spans[best].Start {
					best = j
				}
			}
			if best >= 0 {
				c.Parent, c.Req = best, spans[best].Req
			}
		}
	}
}

// layerTime is one span name's totals: how many, how long they were open,
// and how much of that no child span covers.
type layerTime struct {
	count      int
	busyNS     int64
	selfNS     int64
	unparented int // children with no containing parent: background work
}

func (l layerTime) meanBusyUS() float64 { return meanUS(l.busyNS, l.count) }
func (l layerTime) meanSelfUS() float64 { return meanUS(l.selfNS, l.count) }

func meanUS(ns int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / 1e3 / float64(n)
}

// selfTimes returns per-name totals over linked spans. A span's self time
// is its duration minus the union of the parts its children cover
// (children may overlap: a hedged origin fetch races a peer fetch).
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		lt := out[s.Name]
		dur := s.End - s.Start
		lt.count++
		lt.busyNS += dur
		lt.selfNS += dur - coveredNS(spans, children[i], s.Start, s.End)
		if parentOf(s.Name) != nil && s.Parent < 0 {
			lt.unparented++
		}
		out[s.Name] = lt
	}
	return out
}

// coveredNS is the length of the union of the kids' intervals, clipped to
// [lo, hi].
func coveredNS(spans []span, kids []int, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
	var covered int64
	edge := lo
	for _, k := range kids {
		s, e := spans[k].Start, spans[k].End
		if s < edge {
			s = edge
		}
		if e > hi {
			e = hi
		}
		if e > s {
			covered += e - s
			edge = e
		}
	}
	return covered
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
