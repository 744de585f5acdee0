package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// The tests run bapsload's main in a child process of the test binary, so a
// scenario's flags, report and exit status are the command's own while the
// origin, the proxies and the agents still live inside that one process.
// The child's race detector, under `go test -race`, reports through its exit
// status like any other failure.

const childEnv = "BAPSLOAD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs bapsload with args and returns its stdout and exit status.
func runMain(t *testing.T, args ...string) ([]byte, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("bapsload %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	if t.Failed() || code > 1 {
		t.Logf("bapsload %v stderr:\n%s", args, stderr.String())
	}
	return stdout.Bytes(), code
}

// opaque keys are maps keyed by data (sources) or another package's report
// (proxy_stats); the key set stops at them.
var opaque = map[string]bool{"sources": true, "proxy_stats": true}

// keyPaths flattens a decoded JSON value into its key paths: "a.b" for a
// nested object, "a[].b" for the objects of an array, union over elements.
func keyPaths(v any, prefix string, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			if !opaque[k] {
				keyPaths(child, p, out)
			}
		}
	case []any:
		for _, child := range x {
			keyPaths(child, prefix+"[]", out)
		}
	}
}

func decodeKeys(t *testing.T, blob []byte) map[string]bool {
	t.Helper()
	var v any
	if err := json.Unmarshal(blob, &v); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, blob)
	}
	out := make(map[string]bool)
	keyPaths(v, "", out)
	return out
}

// withParents adds every key's enclosing objects ("a.b.c" adds "a.b", "a").
func withParents(keys []string) map[string]bool {
	out := make(map[string]bool)
	for _, k := range keys {
		for p := k; p != ""; {
			out[p] = true
			i := len(p) - 1
			for i >= 0 && p[i] != '.' {
				i--
			}
			if i < 0 {
				break
			}
			p = p[:i]
			if n := len(p); n >= 2 && p[n-2:] == "[]" {
				p = p[:n-2]
			}
		}
	}
	return out
}

// checkKeys fails unless got holds every required key and nothing outside
// required and optional.
func checkKeys(t *testing.T, got map[string]bool, required, optional []string) {
	t.Helper()
	req, opt := withParents(required), withParents(optional)
	var missing, extra []string
	for k := range req {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !req[k] && !opt[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 {
		t.Errorf("report lacks keys %v", missing)
	}
	if len(extra) > 0 {
		t.Errorf("report has unexpected keys %v", extra)
	}
}

func under(prefix string, keys ...string) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = prefix + k
	}
	return out
}

func join(sets ...[]string) []string {
	var out []string
	for _, s := range sets {
		out = append(out, s...)
	}
	return out
}

var latencyKeys = []string{"latency_ms.mean", "latency_ms.p50", "latency_ms.p90", "latency_ms.p95", "latency_ms.p99", "latency_ms.max"}

// The single-run report (plain, -agents, -restartat).
var (
	resultKeys = join([]string{
		"config.proxy", "config.origin", "config.clients", "config.docs", "config.zipf", "config.duration",
		"requests", "errors", "bytes", "wall_sec", "rps", "mb_per_sec", "sources", "proxy_stats", "origin_fetches",
	}, latencyKeys)
	agentKeys   = []string{"index_requests", "non_local_fetches", "index_requests_per_fetch", "agent_local_hits"}
	restartKeys = under("restart.", "killed_after_sec", "down_sec", "restored_docs", "restart_to_warm_sec",
		"pre_hit_ratio", "post_hit_ratio", "recovered", "steady_origin_rps", "peak_post_origin_rps",
		"origin_spike_ratio", "origin_spike_ok")
)

// The federation report (-proxies, -proxysweep).
var fedKeys = join(
	under("config.", "sweep", "clients_per_proxy", "docs", "zipf", "duration", "per_proxy_rps", "digest_interval", "seed"),
	under("runs[].", join([]string{
		"proxies", "clients_total", "requests", "errors", "wall_sec", "aggregate_rps", "aggregate_hit_ratio",
		"sources", "origin_fetches", "origin_fetch_rate", "cross_proxy_fetches", "cross_proxy_rate",
		"bloom_confirms", "bloom_fps", "bloom_fp_rate", "digests_sent", "digests_received",
	}, latencyKeys, under("per_proxy[].", "proxy", "clients", "requests", "hit_ratio", "cluster_fetches",
		"cluster_serves", "cluster_serve_hits", "locate_confirms", "locate_fps", "digests_sent",
		"digests_received", "origin_share"))...),
	[]string{"rps_scaling", "scaling_per_doubling", "scaling_ok", "hit_ratio_ok", "hit_ratio_delta"},
)

// The invalidation report (-modrate).
var (
	invalRunKeys = []string{"pipeline", "requests", "errors", "wall_sec", "rps", "modifications",
		"stale_serves_total", "stale_serve_rate", "origin_fetches", "origin_fetches_per_modification",
		"revalidations", "revalidations_changed", "invalidations_sent", "invalidations_received",
		"cross_proxy_fetches", "dead_lettered"}
	invalKeys = join(
		under("config.", "proxies", "clients", "docs", "zipf", "duration", "mod_rate", "revalidate_after", "seed"),
		under("baseline.", invalRunKeys...), under("pipeline.", invalRunKeys...),
		[]string{"stale_ok", "origin_ok"},
	)
)

func TestReportKeys(t *testing.T) {
	small := []string{"-clients", "2", "-docs", "200", "-zipf", "1.2"}
	cases := []struct {
		name     string
		args     []string
		codes    []int // accepted exit statuses: 1 is a gate's verdict
		required []string
		optional []string
	}{
		{"plain", join([]string{"-inprocess", "-duration", "1s"}, small), []int{0}, resultKeys, nil},
		{"agents", join([]string{"-inprocess", "-agents", "-duration", "1s"}, small), []int{0},
			join(resultKeys, agentKeys), []string{"index_publish_failures"}},
		{"agenthosts", join([]string{"-inprocess", "-agents", "-agenthosts", "2", "-duration", "1s"}, small), []int{0},
			join(resultKeys, agentKeys), []string{"index_publish_failures"}},
		{"restart", join([]string{"-inprocess", "-datadir", "DATADIR", "-capacity", "33554432",
			"-duration", "3s", "-restartat", "1s", "-restartdown", "200ms"}, small), []int{0},
			join(resultKeys, restartKeys), nil},
		{"proxies1", join([]string{"-proxies", "1", "-duration", "1s"}, small), []int{0},
			fedKeys, []string{"runs[].per_proxy[].quarantined_siblings"}},
		{"proxies2", join([]string{"-proxies", "2", "-duration", "1s"}, small), []int{0},
			fedKeys, []string{"runs[].per_proxy[].quarantined_siblings"}},
		{"modrate", []string{"-modrate", "20", "-proxies", "2", "-clients", "2", "-docs", "100", "-zipf", "1.3",
			"-duration", "1s"}, []int{0, 1}, invalKeys, []string{"stale_reduction"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			args := append([]string(nil), tc.args...)
			for i, a := range args {
				if a == "DATADIR" {
					args[i] = t.TempDir()
				}
			}
			out, code := runMain(t, args...)
			ok := false
			for _, c := range tc.codes {
				ok = ok || c == code
			}
			if !ok {
				t.Fatalf("exit status %d, want one of %v; stdout:\n%s", code, tc.codes, out)
			}
			checkKeys(t, decodeKeys(t, out), tc.required, tc.optional)
		})
	}
}

// TestSoakReportKeysSurviveRoundTrip decodes the checked-in soak baseline into
// the soak report types and encodes it again: every key the Makefile greps
// and -soakcompare reads must survive. (A live -soak run takes at least two
// 15 s parity legs, too long for a unit test.)
func TestSoakReportKeysSurviveRoundTrip(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "..", "LOAD_soak_smoke_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep soakReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	before, after := decodeKeys(t, blob), decodeKeys(t, again)
	var lost []string
	for k := range before {
		if !after[k] {
			lost = append(lost, k)
		}
	}
	sort.Strings(lost)
	if len(lost) > 0 {
		t.Errorf("keys lost in the round trip: %v", lost)
	}
	for _, k := range []string{"hit_ratio_delta", "hit_ratio_ok", "rss_per_agent_bytes", "rss_per_agent_ok", "ok",
		"soak.rps", "soak.latency_ms.p99", "soak.samples[].rss_bytes", "soak.churn.agent_kills"} {
		if !before[k] {
			t.Errorf("baseline lacks %q", k)
		}
	}
}

// TestNothingCompletedFails points a run at a proxy that never answers
// /fetch: every request is still in flight when the window closes, so the
// run reports 0 requests and 0 errors, and it must fail rather than pass.
func TestNothingCompletedFails(t *testing.T) {
	stall := make(chan struct{})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/fetch" {
			http.NotFound(w, r)
			return
		}
		select {
		case <-r.Context().Done():
		case <-stall:
		}
	}))
	defer stub.Close()
	defer close(stall)

	out, code := runMain(t, "-proxy", stub.URL, "-origin", "http://127.0.0.1:1",
		"-clients", "2", "-docs", "10", "-duration", "500ms")
	if code != 1 {
		t.Fatalf("exit status %d, want 1; stdout:\n%s", code, out)
	}
	var res struct{ Requests, Errors int64 }
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatalf("the report must still be written: %v\n%s", err, out)
	}
	if res.Requests != 0 || res.Errors != 0 {
		t.Errorf("requests %d, errors %d; want 0 and 0", res.Requests, res.Errors)
	}
}

func TestTallyCheck(t *testing.T) {
	for _, tc := range []struct {
		requests, errors int64
		want             bool
	}{{0, 0, false}, {3, 3, false}, {3, 2, true}} {
		tl := &tally{requests: tc.requests, errors: tc.errors}
		if got := tl.check("test"); got != tc.want {
			t.Errorf("%d requests, %d errors: check = %v, want %v", tc.requests, tc.errors, got, tc.want)
		}
	}
}
