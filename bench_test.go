package baps

// The benchmark harness: one benchmark per table and figure of the paper
// (regenerating it at a reduced workload scale and reporting the headline
// metrics via b.ReportMetric), plus micro-benchmarks of every substrate on
// the hot path (LRU cache, browser index, Bloom filters, trace generation,
// watermarks, onions, and the live HTTP pipeline end-to-end).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks accept the full-scale workloads too; regenerating
// paper-scale numbers is what cmd/bapsim is for.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"baps/internal/anonymity"
	"baps/internal/bloom"
	"baps/internal/cache"
	"baps/internal/core"
	"baps/internal/index"
	"baps/internal/integrity"
	"baps/internal/intern"
	"baps/internal/sim"
	"baps/internal/stats"
	"baps/internal/synth"
	"baps/internal/trace"
)

// statsHistogram and bytesReader keep the benchmark bodies terse.
type statsHistogram = stats.Histogram

func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }

// benchOpts shrinks the workloads so a full -bench=. pass stays in minutes.
var benchOpts = Options{Scale: 0.10}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := Table1(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 5 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		hit, _, err := Figure2(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		var baps, palb []float64
		for _, l := range hit.Lines {
			switch l.Name {
			case "browsers-aware-proxy-server":
				baps = l.Y
			case "proxy-and-local-browser":
				palb = l.Y
			}
		}
		for j := range baps {
			if d := baps[j] - palb[j]; d > gain {
				gain = d
			}
		}
	}
	b.ReportMetric(gain, "maxHRgain_pp")
}

func BenchmarkFig3(b *testing.B) {
	var remote float64
	for i := 0; i < b.N; i++ {
		hit, _, err := Figure3(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, l := range hit.Lines {
			if l.Name == "remote-browsers" {
				for _, y := range l.Y {
					if y > remote {
						remote = y
					}
				}
			}
		}
	}
	b.ReportMetric(remote, "maxRemoteHR_pct")
}

func benchFigureVs(b *testing.B, f func(Options) (*Series, *Series, error)) {
	b.Helper()
	var gain float64
	for i := 0; i < b.N; i++ {
		hit, _, err := f(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		d := hit.Lines[0].Y[2] - hit.Lines[1].Y[2] // BAPS − P+LB at the 10% point
		if d > gain || i == 0 {
			gain = d
		}
	}
	b.ReportMetric(gain, "HRgain@10%_pp")
}

func BenchmarkFig4(b *testing.B) { benchFigureVs(b, Figure4) }
func BenchmarkFig5(b *testing.B) { benchFigureVs(b, Figure5) }
func BenchmarkFig6(b *testing.B) { benchFigureVs(b, Figure6) }
func BenchmarkFig7(b *testing.B) { benchFigureVs(b, Figure7) }

func BenchmarkFig8(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		hr, _, err := Figure8(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, l := range hr.Lines {
			if y := l.Y[len(l.Y)-1]; y > last {
				last = y
			}
		}
	}
	b.ReportMetric(last, "maxIncrement@100%_pct")
}

func BenchmarkMemoryStudy(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		tr, err := GenerateTraceScaled("nlanr-uc", 0, 0.10)
		if err != nil {
			b.Fatal(err)
		}
		cfg := DefaultSimConfig(BrowsersAware)
		cfg.Sizing = SizingMinimum
		cfg.BrowserMemFraction = 1.0
		ms, err := MemoryStudy(tr, 0.10, 0, cfg)
		if err != nil {
			b.Fatal(err)
		}
		delta = (ms.BAPS.MemoryByteHitRatio() - ms.PALB.MemoryByteHitRatio()) * 100
	}
	b.ReportMetric(delta, "memBHRdelta_pp")
}

func BenchmarkOverhead(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		tr, err := GenerateTraceScaled("nlanr-bo1", 0, 0.10)
		if err != nil {
			b.Fatal(err)
		}
		res, err := Run(tr, DefaultSimConfig(BrowsersAware))
		if err != nil {
			b.Fatal(err)
		}
		if f := res.RemoteCommFraction() * 100; f > worst {
			worst = f
		}
	}
	b.ReportMetric(worst, "remoteComm_pctOfService")
}

func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := AblationReport(Options{Scale: 0.05}, "nlanr-bo1")
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("empty ablation")
		}
	}
}

func BenchmarkCooperative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := CooperativeReport(Options{Scale: 0.05}, "nlanr-bo1", []int{4})
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 2 {
			b.Fatal("wrong rows")
		}
	}
}

func BenchmarkIndexCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := IndexCompressionReport(Options{Scale: 0.03}, "nlanr-bo1", 1<<13); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Simulator core throughput ---

func benchTraceOnce(b *testing.B) *Trace {
	b.Helper()
	tr, err := GenerateTraceScaled("nlanr-bo1", 0, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func BenchmarkSimulatorBAPS(b *testing.B) {
	tr := benchTraceOnce(b)
	st := trace.Compute(tr)
	cfg := DefaultSimConfig(BrowsersAware)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr, &st, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Requests)), "requests/op")
}

func BenchmarkSimulatorProxyOnly(b *testing.B) {
	tr := benchTraceOnce(b)
	st := trace.Compute(tr)
	cfg := DefaultSimConfig(ProxyCacheOnly)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr, &st, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	p := synth.Profiles()[1] // nlanr-bo1
	p = synth.Scaled(p, 0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceStats(b *testing.B) {
	tr := benchTraceOnce(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.Compute(tr)
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkTwoTierGet measures the string face's hit path (URL → slot, then
// the engine's GetTier); internal/cache's BenchmarkCache* measure the engine.
func BenchmarkTwoTierGet(b *testing.B) {
	tt, err := cache.NewTwoTier(cache.LRU, 1<<30, 1<<26)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("http://bench/doc%d", i)
		tt.Put(cache.Doc{Key: keys[i], Size: 8192})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt.GetTier(keys[i%len(keys)])
	}
}

func BenchmarkIndexAddRemove(b *testing.B) {
	x := index.New(index.SelectMostRecent)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := intern.ID(i % 8192)
		x.Add(index.Entry{Client: i % 64, Doc: doc, Size: 8192, Stamp: float64(i)})
		if i%3 == 0 {
			x.Remove(i%64, doc)
		}
	}
}

func BenchmarkIndexSelect(b *testing.B) {
	x := index.New(index.SelectMostRecent)
	for i := 0; i < 8192; i++ {
		x.Add(index.Entry{Client: i % 64, Doc: intern.ID(i % 1024), Size: 8192, Stamp: float64(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Select(intern.ID(i%1024), i%64)
	}
}

func BenchmarkBloomAddContains(b *testing.B) {
	f, err := bloom.NewFilterForFPR(100_000, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("http://bench/doc%d", i%100_000)
		f.Add(key)
		f.Contains(key)
	}
}

func BenchmarkCountingBloom(b *testing.B) {
	c, err := bloom.NewCounting(1<<20, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("http://bench/doc%d", i%65536)
		c.Add(key)
		if i%2 == 1 {
			c.Remove(key)
		}
	}
}

func BenchmarkHierarchy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := HierarchyReport(Options{Scale: 0.05}, "nlanr-bo1")
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 6 {
			b.Fatal("wrong rows")
		}
	}
}

func BenchmarkHistogram(b *testing.B) {
	var h struct{ hist statsHistogram }
	for i := 0; i < b.N; i++ {
		h.hist.Add(float64(i%1000)/500 + 0.001)
	}
	if h.hist.N() != int64(b.N) {
		b.Fatal("count wrong")
	}
}

func BenchmarkCLFParse(b *testing.B) {
	var sb []byte
	for i := 0; i < 2000; i++ {
		sb = append(sb, []byte(fmt.Sprintf(
			"host%d - - [10/Oct/1998:13:55:%02d -0700] \"GET /d/%d HTTP/1.0\" 200 %d\n",
			i%50, i%60, i%300, 500+i%9000))...)
	}
	b.SetBytes(int64(len(sb)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := trace.ParseCLF(bytesReader(sb), "bench")
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.Requests) != 2000 {
			b.Fatal("lost requests")
		}
	}
}

func BenchmarkLiveOnionHit(b *testing.B) {
	pcfg := ProxyConfig{CacheCapacity: 10_000, MemFraction: 0.1, KeyBits: 1024,
		Forward: ForwardOnion, OnionRelays: 1}
	c, err := StartCluster(ClusterConfig{Agents: 3, Proxy: pcfg, MutateAgent: func(i int, cfg *AgentConfig) {
		cfg.CacheCapacity = 64 << 20
	}})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	u := c.DocURL("/bench/onion?size=20000")
	if _, _, err := c.Agents[0].Get(ctx, u); err != nil {
		b.Fatal(err)
	}
	if err := c.Agents[0].FlushIndex(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Agents[1].Evict(u)
		if err := c.Agents[1].FlushIndex(); err != nil { // the proxy must not pick the evicted copy
			b.Fatal(err)
		}
		if _, src, err := c.Agents[1].Get(ctx, u); err != nil || src != SourceRemote {
			b.Fatalf("src=%v err=%v", src, err)
		}
	}
}

// --- §6 security overheads ---

func BenchmarkIntegritySign(b *testing.B) {
	signer, err := integrity.NewSigner(2048)
	if err != nil {
		b.Fatal(err)
	}
	doc := make([]byte, 8192)
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := signer.Watermark(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntegrityVerify(b *testing.B) {
	signer, err := integrity.NewSigner(2048)
	if err != nil {
		b.Fatal(err)
	}
	doc := make([]byte, 8192)
	mark, _ := signer.Watermark(doc)
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := integrity.Verify(signer.Public(), doc, mark); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnonymityOnion3Hop(b *testing.B) {
	keys := map[int][]byte{}
	path := make([]anonymity.Hop, 3)
	for i := range path {
		k, err := anonymity.NewKey()
		if err != nil {
			b.Fatal(err)
		}
		keys[i] = k
		path[i] = anonymity.Hop{ID: i, Key: k}
	}
	doc := make([]byte, 8192)
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		onion, err := anonymity.BuildOnion(path, doc)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := anonymity.Route(keys, 0, onion); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Live system end-to-end ---

func BenchmarkLiveProxyHit(b *testing.B) {
	pcfg := ProxyConfig{CacheCapacity: 64 << 20, MemFraction: 0.1, CachePeerDocs: true, KeyBits: 1024}
	c, err := StartCluster(ClusterConfig{Agents: 2, Proxy: pcfg})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	u := c.DocURL("/bench/doc?size=8192")
	if _, _, err := c.Agents[0].Get(ctx, u); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate agents so neither serves purely from local cache…
		// agent 1 keeps evicting to force proxy hits.
		c.Agents[1].Evict(u)
		if _, src, err := c.Agents[1].Get(ctx, u); err != nil || src != SourceProxy {
			b.Fatalf("src=%v err=%v", src, err)
		}
	}
}

func BenchmarkLiveRemoteHit(b *testing.B) {
	pcfg := ProxyConfig{CacheCapacity: 10_000 /* too small to cache the doc's neighbors */, MemFraction: 0.1, KeyBits: 1024}
	c, err := StartCluster(ClusterConfig{Agents: 2, Proxy: pcfg, MutateAgent: func(i int, cfg *AgentConfig) {
		cfg.CacheCapacity = 64 << 20
	}})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	u := c.DocURL("/bench/peer?size=20000") // larger than the proxy cache
	if _, _, err := c.Agents[0].Get(ctx, u); err != nil {
		b.Fatal(err)
	}
	if err := c.Agents[0].FlushIndex(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Agents[1].Evict(u)
		if err := c.Agents[1].FlushIndex(); err != nil { // the proxy must not pick the evicted copy
			b.Fatal(err)
		}
		if _, src, err := c.Agents[1].Get(ctx, u); err != nil || src != SourceRemote {
			b.Fatalf("src=%v err=%v", src, err)
		}
	}
}

// BenchmarkAllExperiments measures the whole bapsim-all driver suite at a
// reduced scale — the wall-clock regression gate for the driver layer (see
// make bench-replay). Each iteration models a fresh bapsim process: the
// cross-driver trace memo is reset up front, so the measured win from
// memoization is the within-run dedup of trace generation, never warm-cache
// carry-over between iterations.
func BenchmarkAllExperiments(b *testing.B) {
	o := Options{Scale: 0.1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resetTraceMemo()
		if err := AllReports(o, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayStream measures out-of-core replay throughput end to end: a
// .btr trace file is streamed through the stats pass and then the replay
// pass, exactly as bapsim's replay experiment does, with the trace never
// resident. The req/s metric is the replay-throughput number recorded in
// BENCH_*_replay.json.
func BenchmarkReplayStream(b *testing.B) {
	p := synth.Scaled(synth.Profiles()[1], 0.25) // nlanr-bo1 shape at 40k requests
	g, err := synth.NewStream(p)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.btr")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	bw, err := trace.NewBTRWriter(f, p.Name)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]trace.Request, trace.StreamBatchSize)
	for {
		n, err := g.Next(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := bw.WriteRequest(buf[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := bw.Finish(g.NumClients(), g.NumDocs(), nil); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}

	cfg := sim.DefaultConfig(core.BrowsersAware)
	open := func() *trace.BTRReader {
		rf, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { rf.Close() })
		br, err := trace.OpenBTR(bufio.NewReaderSize(rf, 1<<20))
		if err != nil {
			b.Fatal(err)
		}
		return br
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := trace.StreamStats(open())
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.RunStream(open(), &st, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Requests != int64(p.Requests) {
			b.Fatalf("replayed %d, want %d", res.Requests, p.Requests)
		}
	}
	b.ReportMetric(float64(b.N*p.Requests)/b.Elapsed().Seconds(), "req/s")
}
