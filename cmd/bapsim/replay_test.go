package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"baps/internal/synth"
	"baps/internal/trace"
)

// The replay report of one trace file must not depend on the machine: run
// without -parallel, bapsim replays the same organization, and prints the
// same hit ratios, on one core and on two.
func TestReplayReportIndependentOfCores(t *testing.T) {
	p := synth.MillionClients()
	p.Clients, p.Requests, p.SharedDocs, p.DurationSec = 400, 20_000, 4_000, 3600
	tr, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteBTR(&buf, tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "small.btr")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	report := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return replayReport(t, replayOpts{path: path})
	}
	one, two := report(1), report(2)
	if one != two {
		t.Fatalf("replay report depends on GOMAXPROCS:\n1 core:\n%s\n2 cores:\n%s", one, two)
	}
	if !strings.Contains(one, "HR ") {
		t.Fatalf("report lacks a hit ratio:\n%s", one)
	}
}

// replayReport runs the replay experiment and returns its report without
// the wall-clock and RSS figures: the header, what was replayed, and the
// hit ratios.
func replayReport(t *testing.T, o replayOpts) string {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "report")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	err = runReplay(o)
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(string(raw), "\n") {
		switch {
		case strings.HasPrefix(line, "replay "), strings.HasPrefix(line, "  HR "):
			kept = append(kept, line)
		case strings.HasPrefix(line, "  replay pass"):
			kept = append(kept, line[strings.IndexByte(line, '('):])
		}
	}
	return strings.Join(kept, "\n")
}
