package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"baps/internal/core"
	"baps/internal/sim"
	"baps/internal/stats"
	"baps/internal/trace"
)

// replayLogs writes one request stream as a Squid access.log and as an NCSA
// Common Log Format file: a few clients sharing a Zipf-skewed set of
// documents, one request per second, so both formats keep the same order.
func replayLogs() (squid, clf []byte) {
	r := rand.New(rand.NewPCG(1, 2))
	z := rand.NewZipf(rand.New(rand.NewPCG(3, 4)), 1.2, 1, 79)
	start := time.Date(1998, time.October, 10, 13, 0, 0, 0, time.UTC)
	var sb, cb bytes.Buffer
	for i := range 800 {
		client := fmt.Sprintf("host%d", r.IntN(8))
		doc := z.Uint64()
		size := 500 + 97*doc
		at := start.Add(time.Duration(i) * time.Second)
		fmt.Fprintf(&sb, "%d.000 12 %s TCP_MISS/200 %d GET http://w/d%d - DIRECT/w text/html\n",
			at.Unix(), client, size, doc)
		fmt.Fprintf(&cb, "%s - - [%s] \"GET http://w/d%d HTTP/1.0\" 200 %d\n",
			client, at.Format("02/Jan/2006:15:04:05 -0700"), doc, size)
	}
	return sb.Bytes(), cb.Bytes()
}

// TestRunReplaysRealLogFormats runs bapsreplay -org all over a Squid log and a
// CLF log: the table has one row per organization, and its BAPS hit ratio is
// the one sim.Run gives on the same bytes parsed by the trace package.
func TestRunReplaysRealLogFormats(t *testing.T) {
	squid, clf := replayLogs()
	for _, c := range []struct {
		format string
		log    []byte
		parse  func(io.Reader, string) (*trace.Trace, error)
	}{
		{"squid", squid, trace.ParseSquid},
		{"clf", clf, trace.ParseCLF},
	} {
		t.Run(c.format, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "access.log")
			if err := os.WriteFile(path, c.log, 0o644); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := run([]string{"-trace", path, "-format", c.format, "-org", "all"}, &out); err != nil {
				t.Fatalf("run: %v", err)
			}
			rows := map[string][]string{}
			for _, line := range strings.Split(out.String(), "\n") {
				fields := strings.Fields(line)
				for _, org := range core.Organizations() {
					if len(fields) > 1 && fields[0] == org.String() {
						rows[org.String()] = fields
					}
				}
			}
			if len(rows) != 5 {
				t.Fatalf("got %d organization rows, want 5:\n%s", len(rows), out.String())
			}

			tr, err := c.parse(bytes.NewReader(c.log), path)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.DefaultConfig(core.BrowsersAware)
			cfg.RelativeSize = 0.10
			res, err := sim.Run(tr, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.HitRatio() == 0 {
				t.Fatalf("BAPS hit ratio is 0 on %d requests: the log exercises no cache", len(tr.Requests))
			}
			got, want := rows[core.BrowsersAware.String()][1], stats.Pct(res.HitRatio())
			if got != want {
				t.Errorf("BAPS hit ratio %s, want %s from sim.Run\n%s", got, want, out.String())
			}
		})
	}
}
