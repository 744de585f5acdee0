package sim

import (
	"math"
	"reflect"
	"testing"

	"baps/internal/core"
	"baps/internal/obs"
	"baps/internal/trace"
)

// With one shard the partition is the identity, the capacity slices reduce
// to the global ones, and RunSharded must be bit-identical to Run on every
// golden configuration.
func TestShardedOneShardBitIdentical(t *testing.T) {
	tr := goldenTrace(t)
	st := trace.Compute(tr)
	for i, cfg := range goldenCases() {
		want, err := Run(tr, &st, cfg)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got, err := RunSharded(trace.NewSliceStream(tr), &st, cfg, 1)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		compareResults(t, i, want, got)
	}
}

// Sharding genuinely changes the simulated organization (peer hits come only
// from same-shard browsers; the proxy splits into independent slices), so
// shards > 1 carries a small epsilon against the sequential run. Gate that
// epsilon on canet2: aggregate ratios within 0.05 absolute, conservation
// invariants intact, and repeated sharded runs bit-identical to each other.
func TestShardedEpsilonAgainstSequential(t *testing.T) {
	tr := goldenTrace(t)
	st := trace.Compute(tr)
	for _, shards := range []int{2, 4} {
		for i, cfg := range goldenCases() {
			want, err := Run(tr, &st, cfg)
			if err != nil {
				t.Fatalf("shards=%d case %d: %v", shards, i, err)
			}
			got, err := RunSharded(trace.NewSliceStream(tr), &st, cfg, shards)
			if err != nil {
				t.Fatalf("shards=%d case %d: %v", shards, i, err)
			}
			if err := got.Check(); err != nil {
				t.Fatalf("shards=%d case %d: %v", shards, i, err)
			}
			// With no warm-up every request is counted exactly once
			// regardless of the partition; with warm-up each shard
			// skips its own prefix, so the counted set (not just its
			// size) legitimately differs.
			if cfg.WarmupFraction == 0 {
				if got.Requests != want.Requests {
					t.Fatalf("shards=%d case %d: replayed %d requests, want %d",
						shards, i, got.Requests, want.Requests)
				}
				if got.TotalBytes != want.TotalBytes {
					t.Fatalf("shards=%d case %d: total bytes %d, want %d",
						shards, i, got.TotalBytes, want.TotalBytes)
				}
			}
			const eps = 0.05
			checks := []struct {
				name      string
				want, got float64
			}{
				{"HitRatio", want.HitRatio(), got.HitRatio()},
				{"ByteHitRatio", want.ByteHitRatio(), got.ByteHitRatio()},
				{"LocalHitRatio", want.LocalHitRatio(), got.LocalHitRatio()},
				{"MemoryByteHitRatio", want.MemoryByteHitRatio(), got.MemoryByteHitRatio()},
			}
			for _, c := range checks {
				if d := math.Abs(c.want - c.got); d > eps {
					t.Errorf("shards=%d case %d (%v): %s diverged by %.4f (seq %.4f, sharded %.4f)",
						shards, i, cfg.Organization, c.name, d, c.want, c.got)
				}
			}
			again, err := RunSharded(trace.NewSliceStream(tr), &st, cfg, shards)
			if err != nil {
				t.Fatalf("shards=%d case %d rerun: %v", shards, i, err)
			}
			compareResults(t, i, got, again)
		}
	}
}

// Per-client request counts feed only the per-shard warm-up cutoffs, so a
// replay without warm-up must not need them: stats without ClientRequests
// give a Result identical to the one from full stats, and with warm-up on
// they are refused with an error, not a panic.
func TestShardedWithoutClientCounts(t *testing.T) {
	tr := goldenTrace(t)
	st := trace.Compute(tr)
	bare := st
	bare.ClientRequests = nil
	cfg := DefaultConfig(core.BrowsersAware)
	cfg.WarmupFraction = 0
	want, err := RunSharded(trace.NewSliceStream(tr), &st, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSharded(trace.NewSliceStream(tr), &bare, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("without client counts:\n got %+v\nwant %+v", got, want)
	}
	cfg.WarmupFraction = 0.1
	if _, err := RunSharded(trace.NewSliceStream(tr), &bare, cfg, 2); err == nil {
		t.Fatal("warm-up without client counts accepted")
	}
}

// Exercise the router/worker/merge machinery under the race detector with
// metrics and progress plumbing active (run with -race via make check).
func TestShardedMergeRace(t *testing.T) {
	tr := goldenTrace(t)
	st := trace.Compute(tr)
	cfg := goldenCases()[len(goldenCases())-2] // periodic + TTL + warm-up variant
	cfg.Metrics = obs.NewRegistry()
	shards := ShardCount(4, st.NumClients)
	progress := NewShardProgress(shards)
	got, err := RunShardedOpts(trace.NewSliceStream(tr), &st, cfg,
		ShardedOptions{Shards: shards, Progress: progress})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Check(); err != nil {
		t.Fatal(err)
	}
	if total := progress.Total(); total != int64(len(tr.Requests)) {
		t.Fatalf("progress total %d, want %d", total, len(tr.Requests))
	}
	var perShard int64
	for i := 0; i < progress.Shards(); i++ {
		perShard += progress.Shard(i)
	}
	if perShard != progress.Total() {
		t.Fatalf("per-shard progress sums to %d, total %d", perShard, progress.Total())
	}
}

// Progress boards sized for the wrong shard count must be rejected, not
// silently misread.
func TestShardedProgressSizeMismatch(t *testing.T) {
	tr := goldenTrace(t)
	st := trace.Compute(tr)
	cfg := DefaultConfig(goldenCases()[0].Organization)
	_, err := RunShardedOpts(trace.NewSliceStream(tr), &st, cfg,
		ShardedOptions{Shards: 2, Progress: NewShardProgress(3)})
	if err == nil {
		t.Fatal("mismatched progress size accepted")
	}
}

func TestShardCount(t *testing.T) {
	if got := ShardCount(8, 3); got != 3 {
		t.Fatalf("ShardCount(8, 3) = %d, want 3", got)
	}
	if got := ShardCount(2, 100); got != 2 {
		t.Fatalf("ShardCount(2, 100) = %d, want 2", got)
	}
	if got := ShardCount(0, 100); got < 1 {
		t.Fatalf("ShardCount(0, 100) = %d, want >= 1", got)
	}
}
