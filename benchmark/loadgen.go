package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// generators is the number of load-generating goroutines (and connections).
// The box has two cores shared with every server under test; more
// generators than cores would measure the scheduler, not the system.
const generators = 2

// request is one generated operation: which document, and whether an origin
// modification of modDoc precedes it (live.origin's write mix; -1 = none).
type request struct {
	doc    int
	modDoc int
	agent  int // which browser agent asks (agent-driven workloads)
}

// opResult is what one operation reports back to the generator.
type opResult struct {
	ok     bool
	bytes  int  // verified body bytes
	origin bool // answered by the origin (a miss everywhere else)
	stale  bool // body verified, but older than the origin's version at send time
	// checkNS is how long the operation spent verifying after the response
	// was complete; the generator takes it back out of the end time.
	checkNS int64
	sendNS  int64 // filled by the generator: offsets from phase start
	dueNS   int64
	endNS   int64
}

// requestStream yields one worker's seeded request sequence: Zipf document
// choice, and every modEvery-th request carries a Zipf-chosen document to
// modify first. Equal (seed, stream) pairs yield equal sequences.
type requestStream struct {
	zipf, modZipf *rand.Zipf
	modEvery, n   int
	agents        int // > 0: each request also picks a seeded-random agent
	agentRng      *rand.Rand
}

func newRequestStream(seed, stream uint64, docs int, zipfS float64, modEvery int) *requestStream {
	rng := rand.New(rand.NewPCG(seed, stream*0x9E3779B9+1))
	modRng := rand.New(rand.NewPCG(seed^0xA5A5A5A5, stream*0x9E3779B9+7))
	return &requestStream{
		zipf:     rand.NewZipf(rng, zipfS, 1, uint64(docs-1)),
		modZipf:  rand.NewZipf(modRng, zipfS, 1, uint64(docs-1)),
		modEvery: modEvery,
	}
}

func (s *requestStream) next() request {
	s.n++
	r := request{doc: int(s.zipf.Uint64()), modDoc: -1}
	if s.modEvery > 0 && s.n%s.modEvery == 0 {
		r.modDoc = int(s.modZipf.Uint64())
	}
	if s.agents > 0 {
		r.agent = s.agentRng.IntN(s.agents)
	}
	return r
}

// closedLoop runs the workers back to back for the phase: each sends its
// next request only when the previous one completed, so offered load follows
// capacity. A request in flight at the deadline still completes and counts.
func closedLoop(phase time.Duration, streams []*requestStream, do func(worker int, r request) opResult) []opResult {
	per := make([][]opResult, len(streams))
	start := time.Now()
	var wg sync.WaitGroup
	for w := range streams {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				send := time.Since(start)
				if send >= phase {
					return
				}
				res := do(w, streams[w].next())
				res.sendNS = int64(send)
				res.dueNS = res.sendNS
				res.endNS = int64(time.Since(start)) - res.checkNS
				per[w] = append(per[w], res)
			}
		}(w)
	}
	wg.Wait()
	var all []opResult
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// arrival is one scheduled open-loop request.
type arrival struct {
	dueNS int64
	req   request
}

// poissonSchedule draws exponential gaps at rate per second over the phase:
// independent users do not wait for each other, so arrivals are a seeded
// Poisson process fixed before the phase starts.
func poissonSchedule(seed uint64, rate float64, phase time.Duration, stream *requestStream) []arrival {
	rng := rand.New(rand.NewPCG(seed, 0x0BE7))
	var sched []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := int64(t * 1e9)
		if due >= int64(phase) {
			return sched
		}
		sched = append(sched, arrival{dueNS: due, req: stream.next()})
	}
}

// clock lets the open-loop scheduler run against a fake in tests.
type clock interface {
	now() int64 // ns since phase start
	sleepUntil(ns int64)
}

type wallClock struct{ start time.Time }

func (c wallClock) now() int64 { return int64(time.Since(c.start)) }
func (c wallClock) sleepUntil(ns int64) {
	if d := ns - c.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// openLoop sends the schedule regardless of completions: workers take the
// next arrival in order, wait for its due time, and send. When every worker
// is still busy at a due time the request goes out late; its latency is
// still counted from dueNS, so a stall charges every request it delayed.
func openLoop(sched []arrival, workers int, clk clock, do func(worker int, r request) opResult) []opResult {
	out := make([]opResult, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				a := sched[i]
				clk.sleepUntil(a.dueNS)
				send := clk.now()
				res := do(w, a.req)
				res.dueNS, res.sendNS, res.endNS = a.dueNS, send, clk.now()-res.checkNS
				out[i] = res
			}
		}(w)
	}
	wg.Wait()
	return out
}

// openSummary is the open-loop phase's accounting.
type openSummary struct {
	samples   int     // successful requests timed
	p50, tail float64 // ms, from due time
	tailQ     float64 // the quantile tail reports (0.99 when the sample supports it)
	genLagMS  float64 // mean (send − due): how late the generator ran
	backlogMS float64 // lateness of the last request sent: the queue left at phase end
}

func summarizeOpen(res []opResult) openSummary {
	var s openSummary
	var lat []float64
	var lag float64
	for _, r := range res {
		lag += float64(r.sendNS-r.dueNS) / 1e6
		if r.ok {
			lat = append(lat, float64(r.endNS-r.dueNS)/1e6)
		}
	}
	if len(res) > 0 {
		s.genLagMS = lag / float64(len(res))
		last := res[len(res)-1]
		s.backlogMS = math.Max(0, float64(last.sendNS-last.dueNS)/1e6)
	}
	sort.Float64s(lat)
	s.samples = len(lat)
	s.tailQ = tailQuantile(len(lat))
	s.p50 = percentile(lat, 0.5)
	s.tail = percentile(lat, s.tailQ)
	return s
}
