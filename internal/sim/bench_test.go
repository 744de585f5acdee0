package sim

import (
	"testing"

	"baps/internal/core"
	"baps/internal/synth"
)

// BenchmarkSweepPaperSizes is one pass of the benchmark's sim.sweep
// workload: sim.Sweep of nlanr-uc ×0.5 (120 000 requests, 120 clients) over
// the five organizations × PaperSizes. Trace generation is set-up, outside
// the timer; the stats pass is inside, as it is in the workload.
func BenchmarkSweepPaperSizes(b *testing.B) {
	prof, err := synth.ByName("nlanr-uc")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := synth.Generate(synth.Scaled(prof, 0.5))
	if err != nil {
		b.Fatal(err)
	}
	orgs := core.Organizations()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(tr, orgs, PaperSizes, DefaultConfig(core.BrowsersAware)); err != nil {
			b.Fatal(err)
		}
	}
	replayed := float64(b.N) * float64(len(tr.Requests)) * float64(len(orgs)*len(PaperSizes))
	b.ReportMetric(replayed/b.Elapsed().Seconds(), "req/s")
}
