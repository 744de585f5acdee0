// Command bapsreplay replays a web trace file through the trace-driven
// simulator under any of the five caching organizations, printing the
// paper's metrics. It accepts the repository's native trace format, Squid
// access logs, and NCSA Common Log Format — so real logs can be analyzed
// when available.
//
// Usage:
//
//	bapsreplay -trace access.log -format squid -org browsers-aware-proxy-server
//	bapsreplay -trace t.txt [-format native] [-size 0.10] [-sizing average]
//	           [-org all] [-warmup 0.0] [-parent 0] [-ttl 0]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"baps"
	"baps/internal/core"
	"baps/internal/sim"
	"baps/internal/stats"
	"baps/internal/trace"
)

// errUsage reports a command line run cannot use; the flag set has already
// printed what was wrong and the usage.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "bapsreplay: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, replays the trace they name under each organization
// asked for, and writes the trace summary and the replay table to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bapsreplay", flag.ContinueOnError)
	path := fs.String("trace", "", "trace file path (required)")
	format := fs.String("format", "native", "trace format: native, squid, clf")
	orgName := fs.String("org", "all", "organization name, or 'all'")
	size := fs.Float64("size", 0.10, "relative proxy cache size (fraction of infinite)")
	sizing := fs.String("sizing", "average", "browser sizing: minimum, average, per-client")
	warmup := fs.Float64("warmup", 0, "fraction of requests excluded as warm-up")
	parent := fs.Float64("parent", 0, "upper-level proxy relative size (0 = none)")
	ttl := fs.Float64("ttl", 0, "index entry TTL in seconds (0 = none)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if *path == "" {
		fmt.Fprintln(fs.Output(), "bapsreplay: -trace is required")
		fs.Usage()
		return errUsage
	}
	f, err := os.Open(*path)
	if err != nil {
		return err
	}
	defer f.Close()
	var tr *trace.Trace
	switch *format {
	case "native":
		tr, err = trace.Read(f, *path)
	case "squid":
		tr, err = trace.ParseSquid(f, *path)
	case "clf":
		tr, err = trace.ParseCLF(f, *path)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		return err
	}
	st := trace.Compute(tr)
	fmt.Fprintf(w, "trace %s: %d requests, %d clients, %s total, infinite cache %s, ceiling %s / %s bytes\n\n",
		tr.Name, st.NumRequests, st.NumClients, stats.Bytes(st.TotalBytes),
		stats.Bytes(st.InfiniteCacheBytes), stats.Pct(st.MaxHitRatio), stats.Pct(st.MaxByteHitRatio))

	var orgs []core.Organization
	if *orgName == "all" {
		orgs = core.Organizations()
	} else {
		org, err := core.ParseOrganization(*orgName)
		if err != nil {
			return err
		}
		orgs = []core.Organization{org}
	}
	table := stats.NewTable(fmt.Sprintf("Replay @ %.1f%% relative size (%s sizing, warmup %.0f%%)",
		*size*100, *sizing, *warmup*100),
		"Organization", "Hit ratio", "Byte hit ratio", "Local", "Proxy", "Remote", "Parent", "p95 latency")
	for _, org := range orgs {
		cfg := baps.DefaultSimConfig(org)
		cfg.RelativeSize = *size
		cfg.WarmupFraction = *warmup
		cfg.ParentRelativeSize = *parent
		cfg.DocTTLSec = *ttl
		switch *sizing {
		case "minimum":
			cfg.Sizing = sim.SizingMinimum
		case "average":
			cfg.Sizing = sim.SizingAverage
		case "per-client":
			cfg.Sizing = sim.SizingPerClient
		default:
			return fmt.Errorf("unknown sizing %q", *sizing)
		}
		res, err := sim.Run(tr, &st, cfg)
		if err != nil {
			return err
		}
		if err := res.Check(); err != nil {
			return err
		}
		table.AddRow(org.String(),
			stats.Pct(res.HitRatio()),
			stats.Pct(res.ByteHitRatio()),
			stats.Pct(res.LocalHitRatio()),
			stats.Pct(res.ProxyHitRatio()),
			stats.Pct(res.RemoteHitRatio()),
			fmt.Sprintf("%d", res.ParentHits),
			fmt.Sprintf("%.3fs", res.ServiceP95))
	}
	_, err = fmt.Fprintln(w, table.String())
	return err
}
