// Command bapsim regenerates every table and figure of "On Reliable and
// Scalable Peer-to-Peer Web Document Sharing" (IPDPS 2002) from the
// synthetic stand-in traces, plus the repository's ablation studies.
//
// Usage:
//
//	bapsim [flags] <experiment> [experiment...]
//
// Experiments:
//
//	table1      Table 1: selected web traces
//	fig2        Figure 2: five organizations, NLANR-uc, minimum browser caches
//	fig3        Figure 3: browsers-aware hit breakdowns, NLANR-uc
//	fig4        Figure 4: BAPS vs P+LB, NLANR-bo1
//	fig5        Figure 5: BAPS vs P+LB, BU-95
//	fig6        Figure 6: BAPS vs P+LB, BU-98
//	fig7        Figure 7: BAPS vs P+LB, CA*netII (3 clients)
//	fig8        Figure 8: hit/byte-hit increments vs client population
//	memory      §4.2 memory byte hit ratio study
//	overhead    §5 overhead estimation
//	compression §5 index compression trade-off (exact vs counting Bloom)
//	security    §6 integrity (watermark) overheads
//	ablation    design-choice ablations
//	metrics     per-policy observability dumps (see -metricsout)
//	replay      out-of-core streaming replay of a trace file (-stream, §16)
//	all         everything above except replay (which needs -stream)
//
// Flags:
//
//	-scale f        scale every workload by f (default 1; benchmarks use ~0.1)
//	-seed n         override the calibrated profile seeds
//	-profile p      profile for compression/ablation/metrics (default nlanr-bo1)
//	-chart          also print ASCII charts for figures
//	-metricsout f   write per-policy Prometheus expositions to f (metrics experiment)
//	-stream f       trace file for the replay experiment (.btr or text)
//	-parallel n     replay as n independent proxies, clients split round-robin
//	                (default 1: one proxy, the paper's organization)
//	-maxrss n       replay peak-RSS budget in bytes (exceeding it fails the run)
//	-progress d     replay progress-report interval (e.g. 2s; 0 = off)
//	-cpuprofile f   write a CPU profile of the run to f (go tool pprof)
//	-memprofile f   write a heap profile on exit to f
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"baps"
)

// runLiveCheck replays a small workload through the live HTTP system and
// the simulator, printing both hit ratios and the residual — the
// cross-validation of the repository's two halves.
func runLiveCheck() error {
	tr, err := baps.Generate(baps.Profile{
		Name: "livecheck", Clients: 8, Requests: 1_500, DurationSec: 600,
		SharedDocs: 300, PrivateDocs: 30,
		SharedFraction: 0.75, ZipfAlpha: 0.8, PrivateZipfAlpha: 0.8,
		RecencyFraction: 0.2, RecencyWindow: 32, RecencyGeomP: 0.3,
		MeanDocKB: 6, SizeSigma: 1.0, MinDocBytes: 256, MaxDocBytes: 1 << 18,
		ModifyRate: 0.01, ClientZipfAlpha: 0.4, Seed: 4242,
	})
	if err != nil {
		return err
	}
	res, err := baps.LiveReplay(tr, baps.LiveReplayConfig{RelativeSize: 0.10, Verify: true})
	if err != nil {
		return err
	}
	fmt.Printf("live replay over %d real HTTP requests (8 agents):\n", res.Requests)
	fmt.Printf("  live:      HR %.4f (local %d, proxy %d, remote %d, origin %d)\n",
		res.LiveHitRatio(), res.LiveLocalHits, res.LiveProxyHits, res.LiveRemoteHits, res.LiveMisses)
	fmt.Printf("  simulator: HR %.4f\n", res.Sim.HitRatio())
	fmt.Printf("  residual:  %+.4f\n", res.HitRatioGap())
	return nil
}

func main() {
	scale := flag.Float64("scale", 1, "workload scale factor")
	seed := flag.Int64("seed", 0, "seed override (0 = calibrated)")
	profile := flag.String("profile", "nlanr-bo1", "profile for compression/ablation")
	chart := flag.Bool("chart", false, "print ASCII charts for figures")
	metricsout := flag.String("metricsout", "", "write per-policy Prometheus expositions to this file (metrics experiment)")
	streamFile := flag.String("stream", "", "trace file for the replay experiment (.btr or text; see tracegen -stream)")
	parallel := flag.Int("parallel", 1, "replay as `n` independent proxies, clients split round-robin (1 = one proxy, the paper's organization)")
	maxRSS := flag.Int64("maxrss", 0, "replay peak-RSS budget in bytes (0 = report only)")
	progressEvery := flag.Duration("progress", 0, "replay progress-report interval (0 = off)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bapsim [flags] <experiment>...\nexperiments: table1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 memory overhead compression security ablation cooperative metrics all\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bapsim: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bapsim: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bapsim: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "bapsim: -memprofile: %v\n", err)
			}
		}()
	}
	opts := baps.Options{Scale: *scale, Seed: *seed}

	printSeries := func(ss ...*baps.Series) {
		for _, s := range ss {
			fmt.Println(s.Table().String())
			if *chart {
				fmt.Println(s.Chart(48))
			}
		}
	}
	printTable := func(t *baps.Table) { fmt.Println(t.String()) }

	runOne := func(name string) error {
		switch name {
		case "table1":
			t, err := baps.Table1(opts)
			if err != nil {
				return err
			}
			printTable(t)
		case "fig2":
			h, b, err := baps.Figure2(opts)
			if err != nil {
				return err
			}
			printSeries(h, b)
		case "fig3":
			h, b, err := baps.Figure3(opts)
			if err != nil {
				return err
			}
			printSeries(h, b)
		case "fig4", "fig5", "fig6", "fig7":
			f := map[string]func(baps.Options) (*baps.Series, *baps.Series, error){
				"fig4": baps.Figure4, "fig5": baps.Figure5, "fig6": baps.Figure6, "fig7": baps.Figure7,
			}[name]
			h, b, err := f(opts)
			if err != nil {
				return err
			}
			printSeries(h, b)
		case "fig8":
			h, b, err := baps.Figure8(opts)
			if err != nil {
				return err
			}
			printSeries(h, b)
		case "memory":
			t, err := baps.MemoryStudyReport(opts)
			if err != nil {
				return err
			}
			printTable(t)
		case "overhead":
			t, err := baps.OverheadReport(opts)
			if err != nil {
				return err
			}
			printTable(t)
		case "compression":
			t, err := baps.IndexCompressionReport(opts, *profile, 0 /* auto-size */)
			if err != nil {
				return err
			}
			printTable(t)
		case "security":
			t, err := baps.SecurityReport(2048, 8<<10)
			if err != nil {
				return err
			}
			printTable(t)
		case "ablation":
			t, err := baps.AblationReport(opts, *profile)
			if err != nil {
				return err
			}
			printTable(t)
		case "cooperative":
			t, err := baps.CooperativeReport(opts, *profile, []int{2, 4, 8})
			if err != nil {
				return err
			}
			printTable(t)
		case "hierarchy":
			t, err := baps.HierarchyReport(opts, *profile)
			if err != nil {
				return err
			}
			printTable(t)
		case "latency":
			t, err := baps.LatencyReport(opts, *profile)
			if err != nil {
				return err
			}
			printTable(t)
		case "metrics":
			var dump io.Writer
			if *metricsout != "" {
				f, err := os.Create(*metricsout)
				if err != nil {
					return err
				}
				defer f.Close()
				dump = f
			}
			t, err := baps.MetricsReport(opts, *profile, dump)
			if err != nil {
				return err
			}
			printTable(t)
			if *metricsout != "" {
				fmt.Printf("wrote per-policy expositions to %s\n", *metricsout)
			}
		case "livecheck":
			if err := runLiveCheck(); err != nil {
				return err
			}
		case "replay":
			if err := runReplay(replayOpts{
				path:     *streamFile,
				parallel: *parallel,
				maxRSS:   *maxRSS,
				progress: *progressEvery,
			}); err != nil {
				return err
			}
		case "replicate":
			t, err := baps.ReplicationReport(opts, 5)
			if err != nil {
				return err
			}
			printTable(t)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	names := flag.Args()
	if len(names) == 1 && names[0] == "all" {
		names = strings.Fields("table1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 memory overhead compression security ablation cooperative hierarchy latency metrics livecheck replicate")
	}
	for _, name := range names {
		if err := runOne(name); err != nil {
			fmt.Fprintf(os.Stderr, "bapsim: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}
