package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the TwoTier golden fixture")

// twoTierCheckpoint is the state of one golden run every checkpointEvery
// operations: a digest of the operation log since the previous checkpoint
// (every return value, every OnEvict Doc, every OnDemote key) and the
// cache's Keys() order and byte counts.
type twoTierCheckpoint struct {
	Ops  string `json:"ops"`
	Keys string `json:"keys"`
	Used int64  `json:"used"`
	Mem  int64  `json:"mem"`
}

const (
	goldenOps       = 5000
	checkpointEvery = 100
	goldenCapacity  = 3000
	goldenMemory    = 600
)

// runTwoTierGolden drives one scripted workload through a TwoTier and
// returns its checkpoints. The script mixes fresh stores, re-stores at a new
// size and version, oversize refusals, seeds, references, peeks and
// removals over a key space about four times the resident set.
func runTwoTierGolden(p Policy, seed int64) []twoTierCheckpoint {
	rng := rand.New(rand.NewSource(seed))
	var h hash.Hash = sha256.New()
	logf := func(format string, args ...any) { fmt.Fprintf(h, format+"\n", args...) }
	fmtDoc := func(d Doc) string { return fmt.Sprintf("%s:%d:%d", d.Key, d.Size, d.Version) }
	fmtDocs := func(ds []Doc) string {
		parts := make([]string, len(ds))
		for i, d := range ds {
			parts[i] = fmtDoc(d)
		}
		return strings.Join(parts, ",")
	}
	var onEvict, onDemote []string
	tt, err := NewTwoTier(p, goldenCapacity, goldenMemory, Options{
		OnEvict:  func(d Doc) { onEvict = append(onEvict, fmtDoc(d)) },
		OnDemote: func(d Doc) { onDemote = append(onDemote, d.Key) },
	})
	if err != nil {
		panic(err)
	}
	var out []twoTierCheckpoint
	for i := 1; i <= goldenOps; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(48))
		size := int64(rng.Intn(300) + 1)
		if rng.Intn(10) == 0 {
			size = int64(rng.Intn(goldenCapacity) + 1) // often above the memory tier
		}
		version := int64(i)
		switch r := rng.Intn(100); {
		case r < 3:
			size = goldenCapacity + int64(rng.Intn(100)) + 1
			ev, ok := tt.Put(Doc{Key: key, Size: size, Version: version})
			logf("put-oversize %s %d -> %v [%s]", key, size, ok, fmtDocs(ev))
		case r < 35:
			ev, ok := tt.Put(Doc{Key: key, Size: size, Version: version})
			logf("put %s %d %d -> %v [%s]", key, size, version, ok, fmtDocs(ev))
		case r < 42:
			ev, ok := tt.Seed(Doc{Key: key, Size: size, Version: version})
			logf("seed %s %d %d -> %v [%s]", key, size, version, ok, fmtDocs(ev))
		case r < 75:
			d, tier, ok := tt.GetTier(key)
			logf("get %s -> %s %v %v", key, fmtDoc(d), tier, ok)
		case r < 90:
			d, ok := tt.Peek(key)
			logf("peek %s -> %s %v", key, fmtDoc(d), ok)
		default:
			logf("remove %s -> %v", key, tt.Remove(key))
		}
		logf("evict [%s] demote [%s] len %d used %d", strings.Join(onEvict, ","), strings.Join(onDemote, ","), tt.Len(), tt.Used())
		onEvict, onDemote = onEvict[:0], onDemote[:0]
		if i%checkpointEvery == 0 {
			out = append(out, twoTierCheckpoint{
				Ops:  hex.EncodeToString(h.Sum(nil)[:8]),
				Keys: strings.Join(tt.Keys(), " "),
				Used: tt.Used(),
				Mem:  memUsed(tt),
			})
			h.Reset()
		}
	}
	return out
}

// TestTwoTierGolden pins TwoTier's observable behaviour under all five
// policies: run with -update to rewrite testdata/golden_twotier.json.
func TestTwoTierGolden(t *testing.T) {
	got := map[string][]twoTierCheckpoint{}
	for _, p := range []Policy{LRU, FIFO, LFU, SIZE, GDSF} {
		for seed := int64(1); seed <= 3; seed++ {
			got[fmt.Sprintf("%v/%d", p, seed)] = runTwoTierGolden(p, seed)
		}
	}
	path := filepath.Join("testdata", "golden_twotier.json")
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	var want map[string][]twoTierCheckpoint
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden has %d", len(got), len(want))
	}
	for run, cps := range want {
		g := got[run]
		if len(g) != len(cps) {
			t.Errorf("%s: %d checkpoints, golden has %d", run, len(g), len(cps))
			continue
		}
		for i := range cps {
			if g[i] != cps[i] {
				t.Errorf("%s: first difference by op %d:\n got  %+v\n want %+v", run, (i+1)*checkpointEvery, g[i], cps[i])
				break
			}
		}
	}
}
