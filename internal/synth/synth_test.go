package synth

import (
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"baps/internal/trace"
)

func smallProfile() Profile {
	p := profileNLANRuc()
	p.Requests = 5_000
	p.SharedDocs = 2_000
	p.PrivateDocs = 100
	p.Clients = 20
	return p
}

func TestGenerateValidTrace(t *testing.T) {
	tr, err := Generate(smallProfile())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	if len(tr.Requests) != 5_000 {
		t.Fatalf("got %d requests, want 5000", len(tr.Requests))
	}
	if tr.NumClients != 20 {
		t.Fatalf("NumClients = %d", tr.NumClients)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallProfile())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Requests, b.Requests) {
		t.Fatal("same profile+seed produced different traces")
	}
	p := smallProfile()
	p.Seed++
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Requests, c.Requests) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateAllProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("full profiles are slow in -short mode")
	}
	for _, p := range Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			tr, err := Generate(p)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("invalid: %v", err)
			}
			s := trace.Compute(tr)
			if s.MaxHitRatio < 0.15 || s.MaxHitRatio > 0.85 {
				t.Errorf("MaxHitRatio %.3f outside plausible web-trace range", s.MaxHitRatio)
			}
			if s.SharedRequests == 0 && p.Clients > 1 {
				t.Error("no cross-client sharing generated")
			}
			if s.UniqueDocs < 100 {
				t.Errorf("only %d unique docs", s.UniqueDocs)
			}
		})
	}
}

func TestProfileRegistry(t *testing.T) {
	names := ProfileNames()
	if len(names) != 5 {
		t.Fatalf("got %d profiles, want 5: %v", len(names), names)
	}
	for _, n := range names {
		p, err := ByName(n)
		if err != nil {
			t.Errorf("ByName(%q): %v", n, err)
		}
		if p.Name != n {
			t.Errorf("ByName(%q).Name = %q", n, p.Name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("profile %q invalid: %v", n, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) succeeded")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	mutations := []func(*Profile){
		func(p *Profile) { p.Clients = 0 },
		func(p *Profile) { p.Requests = 0 },
		func(p *Profile) { p.SharedDocs = 0 },
		func(p *Profile) { p.PrivateDocs = -1 },
		func(p *Profile) { p.SharedFraction = 1.5 },
		func(p *Profile) { p.RecencyFraction = -0.1 },
		func(p *Profile) { p.PrivateDocs = 0; p.SharedFraction = 0.5 },
		func(p *Profile) { p.ZipfAlpha = 0 },
		func(p *Profile) { p.MeanDocKB = 0 },
		func(p *Profile) { p.MinDocBytes = 0 },
		func(p *Profile) { p.MaxDocBytes = 1 },
		func(p *Profile) { p.ModifyRate = 1 },
		func(p *Profile) { p.DurationSec = 0 },
		func(p *Profile) { p.SharedDocs = math.MaxInt32 - p.Clients*p.PrivateDocs + 1 },
		func(p *Profile) { p.Clients = 1 << 40; p.PrivateDocs = 1 << 40 },
	}
	for i, mut := range mutations {
		p := smallProfile()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d: Validate accepted invalid profile", i)
		}
	}
	// The document key space may fill the int32 ID space exactly.
	p := smallProfile()
	p.SharedDocs = math.MaxInt32 - p.Clients*p.PrivateDocs
	if err := p.Validate(); err != nil {
		t.Errorf("key space at the int32 limit rejected: %v", err)
	}
}

func TestZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := newZipf(1000, 0.8)
	counts := make([]int, 1000)
	n := 200_000
	for i := 0; i < n; i++ {
		counts[z.sample(rng)]++
	}
	// Rank 1 should be ~2^0.8 ≈ 1.74x more popular than rank 2.
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.4 || ratio > 2.2 {
		t.Errorf("rank1/rank2 ratio = %.2f, want ≈ 1.74", ratio)
	}
	// Top 10% of docs should dominate.
	top := 0
	for i := 0; i < 100; i++ {
		top += counts[i]
	}
	if frac := float64(top) / float64(n); frac < 0.5 {
		t.Errorf("top-10%% docs got only %.2f of requests", frac)
	}
}

func TestZipfUniformWhenAlphaZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	z := newZipf(10, 0)
	counts := make([]int, 10)
	n := 100_000
	for i := 0; i < n; i++ {
		counts[z.sample(rng)]++
	}
	for i, c := range counts {
		frac := float64(c) / float64(n)
		if math.Abs(frac-0.1) > 0.01 {
			t.Errorf("bucket %d: frac %.3f, want ≈0.1", i, frac)
		}
	}
}

// TestZipfIndexMatchesBinarySearch pins the sampler's draw-to-rank map to
// the inverse-CDF binary search with its clamp, at every boundary a faster
// lookup could get wrong: each CDF value and its float neighbours, each
// j/n bucket edge and its neighbours, 0, the largest draw below 1, and a
// million random draws per case. α = 0 puts CDF values exactly on bucket
// edges; a hand-made CDF (α = -1 below) puts every value one ulp below an
// edge, where u·n rounds up into the next bucket.
func TestZipfIndexMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 6, 7, 12, 120, 50_000} {
		for _, alpha := range []float64{-1, 0, 0.45, 0.7, 1.0, 1.2} {
			var z *zipf
			if alpha < 0 {
				cdf := make([]float64, n)
				for i := range cdf {
					cdf[i] = math.Nextafter(float64(i+1)/float64(n), 0)
				}
				z = guided(cdf)
			} else {
				z = newZipf(n, alpha)
			}
			want := func(u float64) int {
				i := sort.SearchFloat64s(z.cdf, u)
				if i >= n {
					i = n - 1
				}
				return i
			}
			check := func(u float64) {
				if u < 0 || u >= 1 {
					return
				}
				if got, w := z.index(u), want(u); got != w {
					t.Fatalf("n=%d α=%v: index(%v) = %d, binary search %d", n, alpha, u, got, w)
				}
			}
			near := func(u float64) {
				check(math.Nextafter(u, -1))
				check(u)
				check(math.Nextafter(u, 2))
			}
			check(0)
			check(math.Nextafter(1, 0))
			for _, c := range z.cdf {
				near(c)
			}
			for j := 0; j <= n; j++ {
				near(float64(j) / float64(n))
			}
			for i := 0; i < 1_000_000; i++ {
				check(rng.Float64())
			}
		}
	}
}

func TestSizerDeterministicAndClipped(t *testing.T) {
	p := smallProfile()
	s := newSizer(p)
	a := s.size([]byte("http://x/1"), 0)
	if b := s.size([]byte("http://x/1"), 0); b != a {
		t.Fatalf("sizer not deterministic: %d vs %d", a, b)
	}
	if v1 := s.size([]byte("http://x/1"), 1); v1 == a {
		t.Log("version bump produced identical size (possible but unlikely)")
	}
	for i := 0; i < 5000; i++ {
		sz := s.size([]byte("http://y/"+string(rune('a'+i%26))), int64(i))
		if sz < p.MinDocBytes || sz > p.MaxDocBytes {
			t.Fatalf("size %d outside [%d,%d]", sz, p.MinDocBytes, p.MaxDocBytes)
		}
	}
}

func TestSizerMeanApproximatesTarget(t *testing.T) {
	p := smallProfile()
	p.SizeSigma = 1.0
	s := newSizer(p)
	var sum float64
	n := 50_000
	for i := 0; i < n; i++ {
		sum += float64(s.size([]byte(string(rune('a'+i%26))+string(rune('0'+i%10))+string(rune(i))), 0))
	}
	mean := sum / float64(n) / 1024
	if mean < p.MeanDocKB*0.6 || mean > p.MeanDocKB*1.6 {
		t.Errorf("mean doc size %.1f KB, want ≈ %.1f KB", mean, p.MeanDocKB)
	}
}

func TestScaled(t *testing.T) {
	p := profileBU95()
	half := Scaled(p, 0.5)
	if half.Requests != p.Requests/2 || half.SharedDocs != p.SharedDocs/2 {
		t.Fatalf("Scaled(0.5): %d/%d", half.Requests, half.SharedDocs)
	}
	if err := half.Validate(); err != nil {
		t.Fatalf("scaled profile invalid: %v", err)
	}
	if same := Scaled(p, 1); !reflect.DeepEqual(same, p) {
		t.Fatal("Scaled(1) changed the profile")
	}
	tiny := Scaled(p, 1e-9)
	if tiny.Requests < 1 || tiny.SharedDocs < 1 {
		t.Fatal("Scaled floor broken")
	}
}

// Scaling a shared-only profile must not invent a private universe: the
// scaled profile generates the same trace, request for request, as the same
// profile scaled by hand.
func TestScaledKeepsSharedOnly(t *testing.T) {
	p := smallProfile()
	p.PrivateDocs = 0
	p.SharedFraction = 1
	byHand := p
	byHand.Requests /= 2
	byHand.SharedDocs /= 2
	byHand.DurationSec /= 2

	got, err := Generate(Scaled(p, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Generate(byHand)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Requests, want.Requests) {
		t.Fatal("Scaled(0.5) of a shared-only profile generated a different trace from the hand-scaled profile")
	}
}

// TestQuickRecencyLocality: with full recency the generated trace's max hit
// ratio is higher than with none, all else equal — the knob does what it
// claims.
func TestQuickRecencyLocality(t *testing.T) {
	f := func(seed int64) bool {
		base := smallProfile()
		base.Seed = seed
		base.Requests = 3_000
		base.ModifyRate = 0

		lo := base
		lo.RecencyFraction = 0
		hi := base
		hi.RecencyFraction = 0.6

		trLo, err := Generate(lo)
		if err != nil {
			t.Fatal(err)
		}
		trHi, err := Generate(hi)
		if err != nil {
			t.Fatal(err)
		}
		hrLo := trace.Compute(trLo).MaxHitRatio
		hrHi := trace.Compute(trHi).MaxHitRatio
		if hrHi+0.02 < hrLo {
			t.Errorf("seed %d: recency 0.6 gave HR %.3f < recency 0 HR %.3f", seed, hrHi, hrLo)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestSizeRankBiasMakesHotDocsSmaller(t *testing.T) {
	p := smallProfile()
	p.Requests = 20_000
	p.RecencyFraction = 0
	p.ModifyRate = 0
	p.SizeRankBias = 2.0
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// Hot docs (many repeats) should average smaller than one-timers.
	counts := map[string]int{}
	size := map[string]int64{}
	for _, r := range tr.Requests {
		counts[r.URL]++
		size[r.URL] = r.Size
	}
	var hotSum, coldSum float64
	var hotN, coldN int
	for url, n := range counts {
		if n >= 5 {
			hotSum += float64(size[url])
			hotN++
		} else if n == 1 {
			coldSum += float64(size[url])
			coldN++
		}
	}
	if hotN < 20 || coldN < 20 {
		t.Skipf("insufficient hot/cold mass: %d/%d", hotN, coldN)
	}
	hotMean, coldMean := hotSum/float64(hotN), coldSum/float64(coldN)
	if hotMean >= coldMean {
		t.Errorf("SizeRankBias=2: hot mean %.0f >= cold mean %.0f", hotMean, coldMean)
	}
}

func TestPickRecentBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 8; n++ {
		for pos := 0; pos < n; pos++ {
			for i := 0; i < 200; i++ {
				idx := pickRecent(rng, n, pos, 0.3)
				if idx < 0 || idx >= n {
					t.Fatalf("pickRecent(n=%d,pos=%d) = %d out of range", n, pos, idx)
				}
			}
		}
	}
	// Degenerate geometric parameter falls back to the default.
	if idx := pickRecent(rng, 4, 2, 0); idx < 0 || idx >= 4 {
		t.Fatalf("fallback geomP broken: %d", idx)
	}
}

// BenchmarkGenerate times one resident trace of the benchmark's sim.sweep
// input: nlanr-uc at half scale (120 000 requests).
func BenchmarkGenerate(b *testing.B) {
	p := Scaled(profileNLANRuc(), 0.5)
	p.Seed++
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(p.Requests)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkGenStream drains the benchmark's sim.stream input (synth-1m's
// shape at 50 000 clients and 1 000 000 requests, seed +1) through the
// generator in stream-sized batches: the set-up cost of sim.stream before
// the .btr encoding.
func BenchmarkGenStream(b *testing.B) {
	p := millionShape(50_000, 1_000_000)
	p.Seed++
	buf := make([]trace.Request, trace.StreamBatchSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := NewStream(p)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := g.Next(buf); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(p.Requests)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
}
