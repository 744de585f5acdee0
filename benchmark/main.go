// Command benchmark is the repository's one yardstick: five named workloads
// over the live proxy plane and the simulator, end-to-end metrics with
// regression bounds (BENCHMARK.json), and a traced mode that attributes time
// and counts to the layers under internal/. README.md has the tables.
//
//	go run ./benchmark                                  every workload, one run each
//	go run ./benchmark -workload live.peer -seed 2      one workload
//	go run ./benchmark -trace                           per-layer numbers
//	go run ./benchmark -runs 10 -out set.json           a set: medians and quartiles
//	go run ./benchmark -compare a.json b.json           two sets against the bounds
//
// The last line of a single-workload run is the JSON object the benchmark
// driver reads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const benchmarkFilePath = "BENCHMARK.json"

// scratchDir holds everything a run writes; it is inside the checkout and
// named in .gitignore.
const scratchDir = ".bench_build/tmp"

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all, each in its own process)")
		seed    = flag.Uint64("seed", 1, "workload seed; 2 is the held-out seed (README.md)")
		seconds = flag.Float64("seconds", 16, "measurement window per run, in seconds")
		traced  = flag.Bool("trace", false, "traced run: spans, counters and layer probes; reports the per-layer metrics")
		out     = flag.String("out", "", "also write the result (one workload) or the set (all workloads) to this file as JSON")
		runs    = flag.Int("runs", 1, "all-workloads mode: runs per workload, on seeds seed, seed+1, ...")
		compare = flag.Bool("compare", false, "compare two sets written by -out: benchmark -compare A.json B.json")
		spans   = flag.String("spans", "", "traced single-workload run: write the spans to this file, one JSON object per line")
	)
	// The driver passes "--trace 0" and "--trace 1"; a Go boolean flag
	// takes its value only after "=".
	var args []string
	for i := 1; i < len(os.Args); i++ {
		a := os.Args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(os.Args) && (os.Args[i+1] == "0" || os.Args[i+1] == "1") {
			i++
			a = "-trace=" + os.Args[i]
		}
		args = append(args, a)
	}
	if err := flag.CommandLine.Parse(args); err != nil {
		os.Exit(2)
	}

	var err error
	switch {
	case *compare:
		err = compareSets(flag.Args())
	case *name != "":
		err = runOne(*name, runOpts{seed: *seed, seconds: *seconds, traced: *traced, spansOut: *spans}, *out)
	default:
		err = runAll(*seed, *seconds, *traced, *runs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs a workload in this process and prints its result; the
// contract line goes last.
func runOne(name string, o runOpts, out string) error {
	var w *workload
	for _, cand := range workloads() {
		if cand.name() == name {
			w = &cand
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if o.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	o.tmpRoot = scratchDir
	o.setupRounds = 3
	o.probeFor = 500 * time.Millisecond
	res, err := w.run(o)
	if err != nil {
		return err
	}
	res.print()
	if out != "" {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, raw, 0o644); err != nil {
			return err
		}
	}
	line, err := res.contractLine()
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// environment is recorded with every set: numbers from another box, or
// another Go, are not comparable.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Link       string `json:"link"`
	Generators int    `json:"generators"`
}

func currentEnvironment() environment {
	// "go run" stamps no VCS settings into the binary, so ask git; a
	// checkout that is not a repository stays "unknown".
	commit := "unknown"
	if raw, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(raw))
	}
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Link: "loopback, not a real link", Generators: generators,
	}
}

// spread is one metric over a set's runs of one workload.
type spread struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// iqrShare is the acceptance rule's spread: (q3 − q1) ÷ median.
func (s spread) iqrShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// workloadSet is every run of one workload in a set.
type workloadSet struct {
	Runs      []*runResult      `json:"runs"`
	Attempted int64             `json:"ops_attempted"`
	Failed    int64             `json:"ops_failed"`
	Metrics   map[string]spread `json:"metrics"`
}

// resultSet is what -out writes in all-workloads mode and -compare reads.
type resultSet struct {
	Env       environment             `json:"environment"`
	Seconds   float64                 `json:"seconds"`
	Traced    bool                    `json:"traced"`
	Workloads map[string]*workloadSet `json:"workloads"`
}

// runAll re-executes this binary once per workload and run, so that peak
// RSS and heap state never leak from one workload into the next.
func runAll(seed uint64, seconds float64, traced bool, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	set := &resultSet{Env: currentEnvironment(), Seconds: seconds, Traced: traced, Workloads: map[string]*workloadSet{}}
	for _, w := range workloads() {
		ws := &workloadSet{Metrics: map[string]spread{}}
		set.Workloads[w.name()] = ws
		for i := 0; i < runs; i++ {
			tmp := filepath.Join(scratchDir, fmt.Sprintf("result-%d.json", os.Getpid()))
			cmd := exec.Command(self, "-workload", w.name(), "-seed", fmt.Sprint(seed+uint64(i)),
				"-seconds", fmt.Sprint(seconds), fmt.Sprintf("-trace=%v", traced), "-out", tmp)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("workload %s: %w", w.name(), err)
			}
			var res runResult
			err := readJSON(tmp, &res)
			os.Remove(tmp)
			if err != nil {
				return err
			}
			ws.Runs = append(ws.Runs, &res)
			ws.Attempted += res.Attempted
			ws.Failed += res.Failed
		}
		for name, v := range ws.Runs[0].Metrics {
			sp := spread{Unit: v.Unit}
			for _, r := range ws.Runs {
				sp.Values = append(sp.Values, r.Metrics[name].Value)
			}
			sp.Median = median(sp.Values)
			sp.Q1, sp.Q3 = quartiles(sp.Values)
			ws.Metrics[name] = sp
		}
	}
	if out == "" {
		return nil
	}
	raw, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, raw, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
