package trace_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"baps/internal/synth"
	"baps/internal/trace"
)

// pinnedStats is the identity of one Stats value: every scalar field, and a
// digest of each per-client vector.
type pinnedStats struct {
	Name                                string
	NumRequests, NumClients             int
	TotalBytes, InfiniteCacheBytes      int64
	UniqueDocs, SharedRequests          int
	MaxHitRatio, MaxByteHitRatio        float64
	ClientInfiniteBytes, ClientRequests string
}

func vectorDigest(v []int64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func pin(st trace.Stats) pinnedStats {
	return pinnedStats{
		Name:                st.Name,
		NumRequests:         st.NumRequests,
		NumClients:          st.NumClients,
		TotalBytes:          st.TotalBytes,
		InfiniteCacheBytes:  st.InfiniteCacheBytes,
		UniqueDocs:          st.UniqueDocs,
		SharedRequests:      st.SharedRequests,
		MaxHitRatio:         st.MaxHitRatio,
		MaxByteHitRatio:     st.MaxByteHitRatio,
		ClientInfiniteBytes: vectorDigest(st.ClientInfiniteBytes),
		ClientRequests:      vectorDigest(st.ClientRequests),
	}
}

// TestComputePinnedStats pins Compute's Table 1 statistics on the five paper
// profiles at 2 % and on the benchmark's sim.sweep input (nlanr-uc at half
// scale, seed +1), so a change to how the statistics are computed cannot
// move a count, a ratio or a per-client vector.
func TestComputePinnedStats(t *testing.T) {
	var ps []synth.Profile
	for _, p := range synth.Profiles() {
		ps = append(ps, synth.Scaled(p, 0.02))
	}
	uc, err := synth.ByName("nlanr-uc")
	if err != nil {
		t.Fatal(err)
	}
	uc = synth.Scaled(uc, 0.5)
	uc.Seed++
	ps = append(ps, uc)

	want := []pinnedStats{
		{Name: "nlanr-uc", NumRequests: 4800, NumClients: 120, TotalBytes: 42144155, InfiniteCacheBytes: 30494949, UniqueDocs: 3281, SharedRequests: 818, MaxHitRatio: 0.3075, MaxByteHitRatio: 0.26950318496123604, ClientInfiniteBytes: "1c0005ef9eefd6b6", ClientRequests: "6b521e9f72664c0d"},
		{Name: "nlanr-bo1", NumRequests: 3200, NumClients: 80, TotalBytes: 28039441, InfiniteCacheBytes: 18375334, UniqueDocs: 1834, SharedRequests: 818, MaxHitRatio: 0.4184375, MaxByteHitRatio: 0.336179027249509, ClientInfiniteBytes: "3b52eaf4d5e78288", ClientRequests: "b48adc4d477c1342"},
		{Name: "bu-95", NumRequests: 4000, NumClients: 150, TotalBytes: 24535706, InfiniteCacheBytes: 13518066, UniqueDocs: 1909, SharedRequests: 1164, MaxHitRatio: 0.51725, MaxByteHitRatio: 0.44484695080712167, ClientInfiniteBytes: "921ef168592bd819", ClientRequests: "da248528bab12969"},
		{Name: "bu-98", NumRequests: 4000, NumClients: 160, TotalBytes: 39924703, InfiniteCacheBytes: 25660818, UniqueDocs: 2429, SharedRequests: 783, MaxHitRatio: 0.38675, MaxByteHitRatio: 0.3502736138074715, ClientInfiniteBytes: "e2e894525d9ba79b", ClientRequests: "740ed17da9ceb651"},
		{Name: "canet2", NumRequests: 1200, NumClients: 3, TotalBytes: 9864731, InfiniteCacheBytes: 5695347, UniqueDocs: 611, SharedRequests: 147, MaxHitRatio: 0.4825, MaxByteHitRatio: 0.4183282848766986, ClientInfiniteBytes: "7a92e9d9dd1f6070", ClientRequests: "d66fe83e8b2fffaa"},
		{Name: "nlanr-uc", NumRequests: 120000, NumClients: 120, TotalBytes: 989991639, InfiniteCacheBytes: 753823873, UniqueDocs: 81938, SharedRequests: 20653, MaxHitRatio: 0.30654166666666666, MaxByteHitRatio: 0.23082863531133316, ClientInfiniteBytes: "035df802a0fe419d", ClientRequests: "2925c1a5b834512a"},
	}
	if len(want) != len(ps) {
		t.Fatalf("%d pinned cases, want %d", len(want), len(ps))
	}
	for i, p := range ps {
		tr, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := pin(trace.Compute(tr)); got != want[i] {
			t.Errorf("%s:\n got %#v\nwant %#v", p.Name, got, want[i])
		}
	}
}
