package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"baps/internal/core"
	"baps/internal/sim"
	"baps/internal/trace"
)

// replayOpts carries the replay-experiment flags.
type replayOpts struct {
	path     string        // -stream: trace file (.btr or text)
	parallel int           // -parallel: independent proxies (0 or 1: one)
	maxRSS   int64         // -maxrss: peak-RSS budget in bytes (0 = unlimited)
	progress time.Duration // -progress: progress-report interval (0 = off)
}

// runReplay is the out-of-core replay experiment (DESIGN.md §16): two
// sequential passes over a trace file — a streaming stats pass that sizes
// the caches, then a (possibly sharded) streaming replay — with the trace
// never resident. Between the passes the allocator returns the stats pass's
// transient state to the OS so the process peak RSS is the larger pass, not
// the sum. Reports per-pass wall clock and throughput, the replay result,
// and the process peak RSS; a -maxrss budget turns the report into a gate.
// The replay is the paper's one proxy unless -parallel asks for S > 1
// independent proxies, and the report says which.
func runReplay(o replayOpts) error {
	if o.path == "" {
		return fmt.Errorf("replay needs -stream FILE (generate one with tracegen -stream -btr)")
	}
	if o.maxRSS > 0 {
		// An RSS budget implies a heap ceiling: under the default GOGC the
		// heap grows to 2x its live size between collections, so a replay
		// whose live state is just over half the budget still blows it.
		// Cap the runtime's memory at 7/8 of the budget — the remainder
		// covers stacks, the .btr read buffers, and GC pacing overshoot.
		debug.SetMemoryLimit(o.maxRSS - o.maxRSS/8)
	}

	statsStart := time.Now()
	s, closeStream, err := openTraceStream(o.path)
	if err != nil {
		return err
	}
	st, err := trace.StreamStats(s)
	closeStream()
	if err != nil {
		return err
	}
	statsDur := time.Since(statsStart)
	fmt.Printf("replay %s: %d requests, %d clients, %d docs, %.2f GB\n",
		st.Name, st.NumRequests, st.NumClients, st.UniqueDocs, float64(st.TotalBytes)/1e9)
	fmt.Printf("  stats pass   %8.2fs  %6.2fM req/s  (streaming, %s)\n",
		statsDur.Seconds(), reqRate(st.NumRequests, statsDur), rssString(readProcStatusKB("VmRSS")))

	// Return the stats pass's transient pages before the replay allocates
	// its own peak, so VmHWM reflects max(passes), not their sum.
	debug.FreeOSMemory()

	cfg := sim.DefaultConfig(core.BrowsersAware)
	shards := sim.ShardCount(o.parallel, st.NumClients)
	prog := sim.NewShardProgress(shards)

	s, closeStream, err = openTraceStream(o.path)
	if err != nil {
		return err
	}
	defer closeStream()

	done := make(chan struct{})
	if o.progress > 0 {
		go reportProgress(prog, int64(st.NumRequests), o.progress, done)
	}
	replayStart := time.Now()
	res, err := sim.RunShardedOpts(s, &st, cfg, sim.ShardedOptions{Shards: shards, Progress: prog})
	replayDur := time.Since(replayStart)
	close(done)
	if err != nil {
		return err
	}
	if err := res.Check(); err != nil {
		return err
	}

	organization := "one proxy"
	if shards > 1 {
		organization = fmt.Sprintf("S = %d independent proxies", shards)
	}
	fmt.Printf("  replay pass  %8.2fs  %6.2fM req/s  (%s)\n",
		replayDur.Seconds(), reqRate(st.NumRequests, replayDur), organization)
	fmt.Printf("  HR %.4f  BHR %.4f  (local %.4f, proxy %.4f, remote %.4f)\n",
		res.HitRatio(), res.ByteHitRatio(),
		res.LocalHitRatio(), res.ProxyHitRatio(), res.RemoteHitRatio())

	peakKB := readProcStatusKB("VmHWM")
	if o.maxRSS > 0 {
		fmt.Printf("  peak RSS     %s (budget %s)\n", rssString(peakKB), rssString(o.maxRSS/1024))
		if peakKB > 0 && peakKB*1024 > o.maxRSS {
			return fmt.Errorf("peak RSS %s exceeds budget %s", rssString(peakKB), rssString(o.maxRSS/1024))
		}
	} else {
		fmt.Printf("  peak RSS     %s\n", rssString(peakKB))
	}
	return nil
}

// reportProgress prints replay progress at each tick: requests done, current
// throughput, resident set, and shard balance (min/max shard progress).
func reportProgress(p *sim.ShardProgress, total int64, every time.Duration, done chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	start := time.Now()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			n := p.Total()
			minP, maxP := int64(-1), int64(0)
			for i := 0; i < p.Shards(); i++ {
				c := p.Shard(i)
				if minP < 0 || c < minP {
					minP = c
				}
				if c > maxP {
					maxP = c
				}
			}
			balance := 1.0
			if maxP > 0 {
				balance = float64(minP) / float64(maxP)
			}
			fmt.Fprintf(os.Stderr, "bapsim: replay %5.1f%%  %d/%d req  %6.2fM req/s  rss %s  shard balance %.2f\n",
				100*float64(n)/float64(total), n, total,
				float64(n)/1e6/time.Since(start).Seconds(),
				rssString(readProcStatusKB("VmRSS")), balance)
		}
	}
}

// openTraceStream opens a trace file as a stream, sniffing the binary magic
// and falling back to the text decoder.
func openTraceStream(path string) (trace.Stream, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	closeF := func() { f.Close() }
	br, err := trace.OpenBTR(bufio.NewReaderSize(f, 1<<20))
	if err == nil {
		return br, closeF, nil
	}
	if !errors.Is(err, trace.ErrBadMagic) {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	name := strings.TrimSuffix(baseName(path), ".txt")
	return trace.NewTextStream(bufio.NewReaderSize(f, 1<<20), name), closeF, nil
}

func baseName(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

func reqRate(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / 1e6 / d.Seconds()
}

// readProcStatusKB reads a VmHWM/VmRSS-style field from /proc/self/status in
// kB; 0 when unavailable (non-Linux).
func readProcStatusKB(field string) int64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, field+":") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb
	}
	return 0
}

func rssString(kb int64) string {
	switch {
	case kb <= 0:
		return "n/a"
	case kb >= 1<<20:
		return fmt.Sprintf("%.2f GiB", float64(kb)/(1<<20))
	default:
		return fmt.Sprintf("%.1f MiB", float64(kb)/(1<<10))
	}
}
