package main

import (
	"context"
	"crypto/md5"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"baps/internal/bloom"
	"baps/internal/cache"
	"baps/internal/core"
	"baps/internal/diskstore"
	"baps/internal/federation"
	"baps/internal/index"
	"baps/internal/integrity"
	"baps/internal/intern"
	"baps/internal/latency"
	"baps/internal/sim"
	"baps/internal/synth"
	"baps/internal/trace"
	"baps/internal/workqueue"
)

// Layer probes time a layer's public functions from outside, at the size
// the workload gives that layer. Each runs batches until its time is up and
// reports the median batch's cost per operation; traced runs only.

// probe calls batch (which performs and returns some number of operations)
// until d has passed and returns the median nanoseconds per operation.
func probe(d time.Duration, batch func() int) (nsPerOp float64, batches int) {
	var per []float64
	for start := time.Now(); time.Since(start) < d || len(per) == 0; {
		t0 := time.Now()
		n := batch()
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per), len(per)
}

// Each live workload names its probe set in workloads.go: the layers it
// leans on. The others stay 0 in its result.

// readPathProbes is live.hot's: cache reads.
func readPathProbes(res *runResult, spec *liveSpec, o runOpts) error {
	probeCache(res, spec, o, true)
	return nil
}

// peerPathProbes is live.peer's: the index and verification. The
// federation probe rides along; no workload federates yet.
func peerPathProbes(res *runResult, spec *liveSpec, o runOpts) error {
	probeIndex(res, spec, o)
	if err := probeIntegrity(res, spec, o, false); err != nil {
		return err
	}
	return probeFederation(res, spec, o)
}

// writePathProbes is live.origin's: evicting inserts, signing, the disk
// store and the work queue.
func writePathProbes(res *runResult, spec *liveSpec, o runOpts) error {
	probeCache(res, spec, o, false)
	if err := probeIntegrity(res, spec, o, true); err != nil {
		return err
	}
	if err := probeDiskstore(res, spec, o); err != nil {
		return err
	}
	probeWorkqueue(res, o)
	return nil
}

// probeCache times the proxy's accounting cache: reads of resident keys
// (live.hot's whole job) or inserts into a full cache, each evicting
// (live.origin's).
func probeCache(res *runResult, spec *liveSpec, o runOpts, reads bool) {
	keys := make([]string, spec.docs)
	for d := range keys {
		keys[d] = "http://127.0.0.1:1" + docPath(d)
	}
	rng := rand.New(rand.NewPCG(o.seed, 0xCAC4E))
	zipf := rand.NewZipf(rng, spec.zipfS, 1, uint64(spec.docs-1))
	if reads {
		tc, _ := cache.NewTwoTier(cache.LRU, 256<<20, 256<<20/10)
		for d, k := range keys {
			tc.Put(cache.Doc{Key: k, Size: int64(spec.sizeOf(d))})
		}
		ns, n := probe(o.probeFor, func() int {
			for i := 0; i < 4096; i++ {
				tc.GetTier(keys[zipf.Uint64()])
			}
			return 4096
		})
		res.set("cache.get_ns", ns, n)
		return
	}
	// live.origin's memory tier, or a quarter of the universe where that
	// is smaller, so the cache is full and every insert evicts.
	capacity := int64(64 << 20)
	var universe int64
	for d := range keys {
		universe += int64(spec.sizeOf(d))
	}
	if universe/4 < capacity {
		capacity = universe / 4
	}
	tc, _ := cache.NewTwoTier(cache.LRU, capacity, capacity/5)
	next := 0
	put := func() {
		d := next % spec.docs
		tc.Put(cache.Doc{Key: keys[d], Size: int64(spec.sizeOf(d)), Version: int64(next / spec.docs)})
		next++
	}
	for tc.Used() < tc.Capacity()*9/10 {
		put()
	}
	ns, n := probe(o.probeFor, func() int {
		for i := 0; i < 1024; i++ {
			put()
		}
		return 1024
	})
	res.set("cache.put_evict_ns", ns, n)
}

// probeIndex times holder lookup and batch application on a table shaped
// like live.peer's: every agent advertising a cache-full of documents.
func probeIndex(res *runResult, spec *liveSpec, o runOpts) {
	agents := spec.hosts * spec.agentsPerHost
	perAgent := int(spec.agentCache) / spec.sizes[0].bytes
	idx := index.NewSharded(index.SelectMostRecent, 0)
	rng := rand.New(rand.NewPCG(o.seed, 0x1DE))
	zipf := rand.NewZipf(rng, spec.zipfS, 1, uint64(spec.docs-1))
	entry := func(client int) index.Entry {
		return index.Entry{Client: client, Doc: intern.ID(zipf.Uint64()), Size: int64(spec.sizes[0].bytes), Stamp: rng.Float64()}
	}
	for a := 0; a < agents; a++ {
		for i := 0; i < perAgent; i++ {
			idx.Add(entry(a))
		}
	}
	var buf []index.Entry
	ns, n := probe(o.probeFor, func() int {
		for i := 0; i < 64; i++ {
			buf = idx.AppendOrdered(buf[:0], intern.ID(zipf.Uint64()), i%agents, 1)
		}
		return 64
	})
	res.set("index.lookup_ns", ns, n)

	// One batch as the host publisher ships it: a handful of upserts, each
	// paired with the removal an eviction caused.
	deltas := make([]index.Delta, 16)
	ns, n = probe(o.probeFor, func() int {
		for b := 0; b < 256; b++ {
			client := rng.IntN(agents)
			for i := range deltas {
				deltas[i] = index.Delta{Entry: entry(client), Remove: i%2 == 1}
			}
			idx.ApplyBatch(client, deltas)
		}
		return 256
	})
	res.set("index.apply_batch_ns", ns, n)
}

// probeIntegrity times the watermark at the workload's key size: signing
// is paid per origin acquisition, verifying per non-local agent fetch.
func probeIntegrity(res *runResult, spec *liveSpec, o runOpts, sign bool) error {
	signer, err := integrity.NewSigner(spec.keyBits)
	if err != nil {
		return err
	}
	sum := md5.Sum([]byte(spec.name))
	digest := sum[:]
	mark, err := signer.WatermarkDigest(digest)
	if err != nil {
		return err
	}
	if sign {
		ns, n := probe(o.probeFor, func() int {
			for i := 0; i < 8; i++ {
				if _, err = signer.WatermarkDigest(digest); err != nil {
					break
				}
			}
			return 8
		})
		res.set("integrity.sign_us", ns/1e3, n)
		return err
	}
	ns, n := probe(o.probeFor, func() int {
		for i := 0; i < 64; i++ {
			if err = integrity.VerifyDigest(signer.Public(), digest, mark); err != nil {
				break
			}
		}
		return 64
	})
	res.set("integrity.verify_us", ns/1e3, n)
	return err
}

// probeDiskstore times spill and read-back at the workload's size mix, and
// how many bytes reach the disk per body byte put.
func probeDiskstore(res *runResult, spec *liveSpec, o runOpts) error {
	bodies := make(map[int][]byte)
	for _, c := range spec.sizes {
		bodies[c.bytes] = make([]byte, c.bytes)
	}
	open := func() (*diskstore.Store, string, error) {
		dir, err := os.MkdirTemp(o.tmpRoot, "diskstore-")
		if err != nil {
			return nil, "", err
		}
		ds, err := diskstore.Open(dir, diskstore.Config{MaxBytes: 256 << 20})
		return ds, dir, err
	}
	put := func(ds *diskstore.Store, doc int) error {
		size := spec.sizeOf(doc)
		return ds.Put(docPath(doc), bodies[size], diskstore.Meta{Size: int64(size)})
	}

	// Write amplification: distinct keys into a fresh store, closed so
	// everything is flushed, then the directory is weighed.
	ds, dir, err := open()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var putBytes int64
	const ampDocs = 256
	for d := 0; d < ampDocs && err == nil; d++ {
		err = put(ds, d)
		putBytes += int64(spec.sizeOf(d))
	}
	if cerr := ds.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	onDisk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	res.set("diskstore.write_amp", float64(onDisk)/float64(putBytes), ampDocs)

	// Timing: keys cycle so live bytes stay under the store's bound and
	// every key read back is still there.
	ds, dir2, err := open()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir2)
	defer ds.Close()
	const keys = 1024
	next := 0
	ns, n := probe(o.probeFor, func() int {
		for i := 0; i < 32 && err == nil; i++ {
			err = put(ds, next%keys)
			next++
		}
		return 32
	})
	if err != nil {
		return err
	}
	res.set("diskstore.put_us", ns/1e3, n)
	rng := rand.New(rand.NewPCG(o.seed, 0xD15C))
	if next > keys {
		next = keys
	}
	ns, n = probe(o.probeFor, func() int {
		for i := 0; i < 32 && err == nil; i++ {
			_, _, err = ds.Get(docPath(rng.IntN(next)))
		}
		return 32
	})
	res.set("diskstore.get_us", ns/1e3, n)
	return err
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// probeWorkqueue times a no-op job from Submit to completion, one batch of
// jobs in the queue at a time.
func probeWorkqueue(res *runResult, o runOpts) {
	q := workqueue.New(workqueue.Config{})
	defer q.Close()
	var wg sync.WaitGroup
	job := workqueue.Job{Kind: "probe", Priority: workqueue.Normal, Run: func(context.Context) error {
		wg.Done()
		return nil
	}}
	ns, n := probe(o.probeFor, func() int {
		done := 0
		for i := 0; i < 64; i++ {
			wg.Add(1)
			if q.Submit(job) != nil {
				wg.Done()
				continue
			}
			done++
		}
		wg.Wait()
		if done == 0 {
			return 1
		}
		return done
	})
	res.set("workqueue.submit_to_done_us", ns/1e3, n)
}

// probeFederation times placement and digest handling for an 8-proxy
// cluster. No workload federates yet, so nothing end to end should move.
func probeFederation(res *runResult, spec *liveSpec, o runOpts) error {
	nodes := make([]string, 8)
	for i := range nodes {
		nodes[i] = "http://127.0.0.1:" + strconv.Itoa(9000+i)
	}
	urls := make([]string, spec.docs)
	for d := range urls {
		urls[d] = nodes[0] + docPath(d)
	}
	cl, err := federation.New(federation.Config{Self: nodes[0], Peers: nodes[1:]}, func() []string { return nil })
	if err != nil {
		return err
	}
	f, err := bloom.NewFilterForFPR(spec.docs, 0.01)
	if err != nil {
		return err
	}
	for _, u := range urls[:spec.docs/2] {
		f.Add(u)
	}
	raw, err := f.MarshalBinary()
	if err != nil {
		return err
	}
	res.set("federation.digest_bytes", float64(len(raw)), 1)

	i := 0
	ns, n := probe(o.probeFor, func() int {
		for k := 0; k < 1024; k++ {
			federation.Owner(nodes, urls[i%len(urls)])
			i++
		}
		return 1024
	})
	res.set("federation.owner_ns", ns, n)
	ns, n = probe(o.probeFor, func() int {
		for _, peer := range nodes[1:] {
			if err = cl.Observe(peer, raw); err != nil {
				break
			}
		}
		return len(nodes) - 1
	})
	if err != nil {
		return err
	}
	res.set("federation.observe_us", ns/1e3, n)
	ns, n = probe(o.probeFor, func() int {
		for k := 0; k < 1024; k++ {
			cl.Candidates(urls[i%len(urls)])
			i++
		}
		return 1024
	})
	res.set("federation.candidates_ns", ns, n)
	return nil
}

// simProbes times the simulator's layers one at a time: generation, and
// for the sweep one configuration and one core access, for the stream the
// decode and the stats pass with no simulation behind them.
func simProbes(res *runResult, spec *simSpec, in *simInput, o runOpts) error {
	var err error
	buf := make([]trace.Request, trace.StreamBatchSize)
	p := spec.seeded(o.seed)
	var g *synth.GenStream
	ns, n := probe(o.probeFor, func() int {
		if g == nil {
			if g, err = synth.NewStream(p); err != nil {
				return 1
			}
		}
		got, nerr := g.Next(buf)
		if nerr == io.EOF || got == 0 {
			g = nil
			return 1
		}
		return got
	})
	if err != nil {
		return err
	}
	res.set("synth.gen_req_per_s", 1e9/ns, n)

	if spec.stream {
		rate := func(name string, drain func(*trace.BTRReader) error) error {
			ns, n := probe(o.probeFor, func() int {
				err = withBTR(in.path, drain)
				return in.st.NumRequests
			})
			res.set(name, 1e9/ns, n)
			return err
		}
		if err := rate("trace.decode_rec_per_s", func(br *trace.BTRReader) error {
			for {
				if _, err := br.Next(buf); err == io.EOF {
					return nil
				} else if err != nil {
					return err
				}
			}
		}); err != nil {
			return err
		}
		return rate("trace.stats_req_per_s", func(br *trace.BTRReader) error {
			_, err := trace.StreamStats(br)
			return err
		})
	}

	// One configuration: the headline one, pooled runner as the sweep's
	// workers use it.
	var rn sim.Runner
	cfg := sim.DefaultConfig(core.BrowsersAware)
	ns, n = probe(o.probeFor, func() int {
		_, err = rn.Run(in.tr, &in.st, cfg)
		return 1
	})
	if err != nil {
		return err
	}
	res.set("sim.config_s", ns/1e9, n)

	// core.System.Access alone, at the same sizing rule, with no latency
	// model or metrics around it.
	caps := make([]int64, in.st.NumClients)
	for i := range caps {
		caps[i] = int64(cfg.RelativeSize * float64(in.st.AvgClientInfiniteBytes()))
	}
	ccfg := core.Config{
		Organization: core.BrowsersAware, NumClients: in.st.NumClients, NumDocs: in.st.UniqueDocs,
		ProxyCapacity: int64(cfg.RelativeSize * float64(in.st.InfiniteCacheBytes)), BrowserCapacity: caps,
		ProxyPolicy: cfg.ProxyPolicy, BrowserPolicy: cfg.BrowserPolicy,
		MemFraction: latency.Default().MemFraction, BrowserMemFraction: cfg.BrowserMemFraction,
		IndexMode: cfg.IndexMode, IndexThreshold: cfg.IndexThreshold, IndexStrategy: cfg.IndexStrategy,
		ForwardMode: cfg.ForwardMode, ProxyCachesPeerDocs: cfg.ProxyCachesPeerDocs, CacheRemoteHits: cfg.CacheRemoteHits,
	}
	in.tr.Intern()
	ns, n = probe(o.probeFor, func() int {
		var sys *core.System
		if sys, err = core.New(ccfg); err != nil {
			return 1
		}
		for _, r := range in.tr.Requests {
			sys.Access(r)
		}
		return len(in.tr.Requests)
	})
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	res.set("core.access_ns", ns, n)
	return nil
}
