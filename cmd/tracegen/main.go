// Command tracegen generates a synthetic web trace from one of the
// calibrated paper profiles (or prints its statistics) in the repository's
// native text format or the compact binary .btr format, replayable by
// bapsim and the library's trace.Read / trace.OpenBTR.
//
// Usage:
//
//	tracegen -profile nlanr-uc [-seed N] [-scale F] [-o trace.txt] [-stats]
//	tracegen -profile synth-1m -stream -btr -o synth-1m.btr
//
// Both paths run the same generator (synth.GenStream, DESIGN.md §16) and
// write the same bytes; they differ only in whether the trace is resident.
// The default path materializes the whole trace in memory before writing.
// -stream writes each batch as it is generated, so request count no longer
// bounds memory — this is the only practical path at 10^6 clients.
// -clients / -requests override the profile's population and volume (the
// CI smoke runs synth-1m at 10^5 clients this way).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"baps"
	"baps/internal/stats"
	"baps/internal/synth"
	"baps/internal/trace"
)

func main() {
	profile := flag.String("profile", "", "profile name ("+strings.Join(baps.ProfileNames(), ", ")+", synth-1m)")
	seed := flag.Int64("seed", 0, "seed override (0 = calibrated)")
	scale := flag.Float64("scale", 1, "workload scale factor")
	clients := flag.Int("clients", 0, "client-count override (0 = profile default)")
	requests := flag.Int("requests", 0, "request-count override (0 = profile default)")
	out := flag.String("o", "", "output file (default stdout; -btr requires a file)")
	btr := flag.Bool("btr", false, "write the compact binary .btr format")
	stream := flag.Bool("stream", false, "write while generating, in constant memory, instead of from a resident trace (same output)")
	statsOnly := flag.Bool("stats", false, "print trace statistics instead of the trace")
	flag.Parse()

	if *profile == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -profile is required")
		flag.Usage()
		os.Exit(2)
	}
	p, err := synth.ByName(*profile)
	if err != nil {
		fail(err)
	}
	if *seed != 0 {
		p.Seed = *seed
	}
	if *scale != 0 && *scale != 1 {
		p = synth.Scaled(p, *scale)
	}
	if *clients > 0 {
		p.Clients = *clients
	}
	if *requests > 0 {
		p.Requests = *requests
	}

	if *stream {
		runStreaming(p, *out, *btr, *statsOnly)
		return
	}

	tr, err := synth.Generate(p)
	if err != nil {
		fail(err)
	}
	if *statsOnly {
		printStats(trace.Compute(tr))
		return
	}
	w, closeOut := openOut(*out)
	defer closeOut()
	if *btr {
		if err := trace.WriteBTR(w, tr); err != nil {
			fail(fmt.Errorf("write: %w", err))
		}
		return
	}
	if err := trace.Write(w, tr); err != nil {
		fail(fmt.Errorf("write: %w", err))
	}
}

// runStreaming drives the generator straight into the requested sink, batch
// by batch; the trace is never resident.
func runStreaming(p synth.Profile, out string, btr, statsOnly bool) {
	g, err := synth.NewStream(p)
	if err != nil {
		fail(err)
	}
	switch {
	case statsOnly:
		st, err := trace.StreamStats(g)
		if err != nil {
			fail(err)
		}
		printStats(st)
	case btr:
		if out == "" {
			fail(fmt.Errorf("-btr -stream needs -o FILE (the writer back-patches the header)"))
		}
		f, err := os.Create(out)
		if err != nil {
			fail(err)
		}
		bw, err := trace.NewBTRWriter(f, p.Name)
		if err != nil {
			fail(err)
		}
		buf := make([]trace.Request, trace.StreamBatchSize)
		for {
			n, err := g.Next(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				fail(err)
			}
			for i := 0; i < n; i++ {
				if err := bw.WriteRequest(buf[i]); err != nil {
					fail(fmt.Errorf("write: %w", err))
				}
			}
		}
		if err := bw.Finish(g.NumClients(), g.NumDocs(), g.URLAt); err != nil {
			fail(fmt.Errorf("finish: %w", err))
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "tracegen: %s: %d requests, %d clients, %d docs -> %s\n",
			p.Name, p.Requests, g.NumClients(), g.NumDocs(), out)
	default:
		// Text output: regenerate each URL as its line is written.
		w, closeOut := openOut(out)
		defer closeOut()
		bw := bufio.NewWriterSize(w, 1<<20)
		fmt.Fprintf(bw, "# baps trace %s clients=%d requests=%d\n", p.Name, p.Clients, p.Requests)
		buf := make([]trace.Request, trace.StreamBatchSize)
		var line []byte
		for {
			n, err := g.Next(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				fail(err)
			}
			for i := 0; i < n; i++ {
				r := buf[i]
				line = line[:0]
				line = strconv.AppendFloat(line, r.Time, 'f', 3, 64)
				line = append(line, ' ')
				line = strconv.AppendInt(line, int64(r.Client), 10)
				line = append(line, ' ')
				line = strconv.AppendInt(line, r.Size, 10)
				line = append(line, ' ')
				line = append(line, g.URLAt(int(r.Doc))...)
				line = append(line, '\n')
				if _, err := bw.Write(line); err != nil {
					fail(fmt.Errorf("write: %w", err))
				}
			}
		}
		if err := bw.Flush(); err != nil {
			fail(fmt.Errorf("write: %w", err))
		}
	}
}

func openOut(path string) (io.Writer, func()) {
	if path == "" {
		return os.Stdout, func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	return f, func() {
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
}

func printStats(s trace.Stats) {
	fmt.Printf("trace %s: %d requests, %d clients\n", s.Name, s.NumRequests, s.NumClients)
	fmt.Printf("  total bytes        %s\n", stats.Bytes(s.TotalBytes))
	fmt.Printf("  unique documents   %d\n", s.UniqueDocs)
	fmt.Printf("  infinite cache     %s\n", stats.Bytes(s.InfiniteCacheBytes))
	fmt.Printf("  avg client inf.    %s\n", stats.Bytes(s.AvgClientInfiniteBytes()))
	fmt.Printf("  max hit ratio      %s\n", stats.Pct(s.MaxHitRatio))
	fmt.Printf("  max byte hit ratio %s\n", stats.Pct(s.MaxByteHitRatio))
	fmt.Printf("  cross-client reqs  %d\n", s.SharedRequests)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
	os.Exit(1)
}
