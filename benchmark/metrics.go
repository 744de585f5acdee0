package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one named metric. The names are the benchmark's contract:
// later changes cite them, and BENCHMARK.json lists the same set (a test
// holds the two together).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the base median it may worsen by
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; what each means on the simulator workloads is in README.md.
var endToEnd = []metricDef{
	{Name: "fetch_rps", Unit: "req/s", Better: "higher"},
	{Name: "goodput_mib_s", Unit: "MiB/s", Better: "higher"},
	{Name: "fetch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "hit_ratio", Unit: "fraction", Better: "higher"},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// perLayer is what the traced run reports. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = []metricDef{
	// Demoted from end-to-end by the repeatability rule (README.md).
	{Name: "fetch_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen_lag_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},

	{Name: "proxy.spans", Unit: "count", Better: "higher"},
	{Name: "proxy.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "proxy.self_us", Unit: "us", Better: "lower"},
	{Name: "proxy.out_origin_us", Unit: "us", Better: "lower"},
	{Name: "proxy.out_origin_count", Unit: "count", Better: "lower"},
	{Name: "proxy.out_peer_us", Unit: "us", Better: "lower"},
	{Name: "proxy.out_peer_count", Unit: "count", Better: "lower"},
	{Name: "proxy.out_background", Unit: "count", Better: "lower"},
	{Name: "proxy.origin_retries", Unit: "count", Better: "lower"},
	{Name: "proxy.hits", Unit: "count", Better: "higher"},
	{Name: "proxy.remote_hits", Unit: "count", Better: "higher"},
	{Name: "proxy.origin_fetches", Unit: "count", Better: "lower"},
	{Name: "proxy.coalesced", Unit: "count", Better: "higher"},
	{Name: "proxy.false_peer_hits", Unit: "count", Better: "lower"},
	{Name: "proxy.disk_hits", Unit: "count", Better: "higher"},
	{Name: "proxy.disk_writes", Unit: "count", Better: "lower"},
	{Name: "proxy.disk_reads", Unit: "count", Better: "lower"},
	{Name: "proxy.index_batches", Unit: "count", Better: "lower"},
	{Name: "proxy.index_deltas", Unit: "count", Better: "lower"},
	{Name: "proxy.revalidations", Unit: "count", Better: "lower"},
	{Name: "proxy.invalidations", Unit: "count", Better: "lower"},

	{Name: "cache.get_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.put_evict_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.proxy_hit_rate", Unit: "fraction", Better: "higher"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},

	{Name: "index.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "index.apply_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "index.useful_ratio", Unit: "fraction", Better: "higher"},

	{Name: "browser.get_us", Unit: "us", Better: "lower"},
	{Name: "browser.local_hit_ratio", Unit: "fraction", Better: "higher"},
	{Name: "browser.peer_serves", Unit: "count", Better: "higher"},
	{Name: "browser.index_reqs_per_fetch", Unit: "ratio", Better: "lower"},

	{Name: "integrity.sign_us", Unit: "us", Better: "lower"},
	{Name: "integrity.signs", Unit: "count", Better: "lower"},
	{Name: "integrity.verify_us", Unit: "us", Better: "lower"},
	{Name: "integrity.verifies", Unit: "count", Better: "lower"},

	{Name: "diskstore.put_us", Unit: "us", Better: "lower"},
	{Name: "diskstore.get_us", Unit: "us", Better: "lower"},
	{Name: "diskstore.write_amp", Unit: "ratio", Better: "lower"},

	{Name: "workqueue.submit_to_done_us", Unit: "us", Better: "lower"},
	{Name: "workqueue.completed", Unit: "count", Better: "higher"},
	{Name: "workqueue.dropped", Unit: "count", Better: "lower"},
	{Name: "workqueue.retried", Unit: "count", Better: "lower"},
	{Name: "workqueue.dead_lettered", Unit: "count", Better: "lower"},
	{Name: "pipeline.stale_rate", Unit: "fraction", Better: "lower"},

	{Name: "origin.serve_us", Unit: "us", Better: "lower"},
	{Name: "origin.fetches_per_req", Unit: "ratio", Better: "lower"},

	{Name: "federation.owner_ns", Unit: "ns", Better: "lower"},
	{Name: "federation.observe_us", Unit: "us", Better: "lower"},
	{Name: "federation.candidates_ns", Unit: "ns", Better: "lower"},
	{Name: "federation.digest_bytes", Unit: "count", Better: "lower"},

	{Name: "synth.gen_req_per_s", Unit: "req/s", Better: "higher"},
	{Name: "trace.decode_rec_per_s", Unit: "rec/s", Better: "higher"},
	{Name: "trace.stats_req_per_s", Unit: "req/s", Better: "higher"},
	{Name: "sim.config_s", Unit: "s", Better: "lower"},
	{Name: "core.access_ns", Unit: "ns", Better: "lower"},
}

// value is one reported number, in the shape the result line uses.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload run. The last line of standard output is its
// four contract keys; the rest is for people and for -out.
type runResult struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   int              `json:"seconds"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Samples says how many observations stand behind a metric (fetches
	// behind a latency, slices behind a rate, set-ups behind setup_s).
	Samples map[string]int `json:"samples"`
	// Notes carries what does not fit a number: the tail quantile
	// actually reported, stale serves, the golden check.
	Notes map[string]string `json:"notes,omitempty"`
	// HitRatios is every simulated configuration's hit ratio (simulator
	// workloads): the golden check's subject.
	HitRatios map[string]float64 `json:"hit_ratios,omitempty"`
}

func newRunResult(workload string, seed uint64, seconds int, traced bool) *runResult {
	return &runResult{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced, Correct: true,
		Metrics: map[string]value{}, Samples: map[string]int{}, Notes: map[string]string{},
	}
}

// set records a metric under the unit its definition fixes; an unknown name
// is a bug in the benchmark.
func (r *runResult) set(name string, v float64, samples int) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				r.Metrics[name] = value{Value: v, Unit: d.Unit}
				if samples > 0 {
					r.Samples[name] = samples
				}
				return
			}
		}
	}
	panic("benchmark: undefined metric " + name)
}

// contractLine is the object the driver reads from the last line: exactly
// correct, attempted, failed, metrics — every metric of the run's kind, with
// 0 for a layer the workload does not touch.
func (r *runResult) contractLine() ([]byte, error) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	m := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			if !r.Traced {
				return nil, fmt.Errorf("workload %s did not report %s", r.Workload, d.Name)
			}
			v = value{Unit: d.Unit}
		}
		m[d.Name] = v
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, m})
}

// print writes every metric the run measured by name, with unit and sample
// count.
func (r *runResult) print() {
	fmt.Printf("workload %s  seed %d  %d s  traced=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-30s %14.4f %-8s", d.Name, v.Value, v.Unit)
		if n := r.Samples[d.Name]; n > 0 {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Println(line)
	}
	fmt.Printf("  ops_attempted %d  ops_failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, k := range sortedKeys(r.Notes) {
		fmt.Printf("  note %s: %s\n", k, r.Notes[k])
	}
}

// benchmarkFile is BENCHMARK.json: the one place the bounds live.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	var b benchmarkFile
	return &b, readJSON(path, &b)
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
