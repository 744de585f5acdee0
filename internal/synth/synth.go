// Package synth generates seeded synthetic web traces that stand in for the
// paper's five archived traces (NLANR-uc, NLANR-bo1, BU-95, BU-98, CA*netII),
// none of which remain publicly retrievable.
//
// Every effect the paper measures is a function of reference-stream
// structure rather than of URL identity, so the generator exposes exactly
// those structural knobs:
//
//   - document popularity skew (Zipf over a shared universe — the source of
//     cross-client sharing the browsers-aware proxy exploits);
//   - per-client private working sets (documents only one client requests);
//   - temporal locality (clients re-reference their own recent documents
//     with geometrically distributed stack distance);
//   - heavy-tailed body sizes (lognormal, clipped);
//   - document modification (a re-requested document occasionally changed
//     size at the origin; the simulator counts such hits as misses, §3.2);
//   - client activity skew (Zipf over clients).
//
// Generation is fully deterministic given Profile.Seed.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"baps/internal/intern"
	"baps/internal/trace"
)

// Profile parameterizes one synthetic trace.
type Profile struct {
	// Name labels the resulting trace.
	Name string

	// Clients is the number of client machines.
	Clients int

	// Requests is the total number of requests to generate.
	Requests int

	// DurationSec is the wall-clock span of the trace; request times are
	// exponential arrivals filling this span.
	DurationSec float64

	// SharedDocs is the size of the globally shared document universe.
	SharedDocs int

	// PrivateDocs is the per-client private document universe size.
	PrivateDocs int

	// SharedFraction is the probability that a fresh (non-recency)
	// request targets the shared universe rather than the client's
	// private one.
	SharedFraction float64

	// ZipfAlpha is the popularity skew of the shared universe (0 < α;
	// web traces typically show 0.6–0.9).
	ZipfAlpha float64

	// PrivateZipfAlpha is the skew within each private universe.
	PrivateZipfAlpha float64

	// RecencyFraction is the probability that a request re-references a
	// document from the client's own recent history (temporal locality
	// beyond popularity).
	RecencyFraction float64

	// RecencyWindow is the length of the per-client history ring.
	RecencyWindow int

	// RecencyGeomP is the geometric parameter for stack-distance
	// selection in the history (larger → tighter locality).
	RecencyGeomP float64

	// MeanDocKB and SizeSigma parameterize the lognormal body size:
	// mean MeanDocKB kilobytes with log-space standard deviation
	// SizeSigma.
	MeanDocKB float64
	SizeSigma float64

	// MinDocBytes and MaxDocBytes clip the size distribution.
	MinDocBytes int64
	MaxDocBytes int64

	// ModifyRate is the per-access probability that the requested
	// document was modified (new size) since its previous delivery.
	ModifyRate float64

	// SizeRankBias correlates size with popularity: a document at
	// popularity rank fraction f ∈ [0,1] (0 = hottest) has its size
	// multiplied by exp(SizeRankBias · (f − 0.5)). Positive values make
	// popular documents smaller, the correlation measured in real web
	// traces — it is what pushes byte hit ratios below hit ratios.
	// Zero disables the bias.
	SizeRankBias float64

	// ClientZipfAlpha skews request volume across clients (0 = uniform).
	ClientZipfAlpha float64

	// Seed makes the trace reproducible.
	Seed int64
}

// Validate reports configuration errors.
func (p *Profile) Validate() error {
	switch {
	case p.Clients <= 0:
		return fmt.Errorf("synth %s: Clients must be > 0", p.Name)
	case p.Requests <= 0:
		return fmt.Errorf("synth %s: Requests must be > 0", p.Name)
	case p.SharedDocs <= 0:
		return fmt.Errorf("synth %s: SharedDocs must be > 0", p.Name)
	case p.PrivateDocs < 0:
		return fmt.Errorf("synth %s: PrivateDocs must be >= 0", p.Name)
	case p.SharedFraction < 0 || p.SharedFraction > 1:
		return fmt.Errorf("synth %s: SharedFraction out of [0,1]", p.Name)
	case p.RecencyFraction < 0 || p.RecencyFraction > 1:
		return fmt.Errorf("synth %s: RecencyFraction out of [0,1]", p.Name)
	case p.PrivateDocs == 0 && p.SharedFraction < 1:
		return fmt.Errorf("synth %s: PrivateDocs=0 requires SharedFraction=1", p.Name)
	case p.ZipfAlpha <= 0 || p.PrivateZipfAlpha < 0:
		return fmt.Errorf("synth %s: Zipf exponents must be positive", p.Name)
	case p.MeanDocKB <= 0 || p.SizeSigma < 0:
		return fmt.Errorf("synth %s: size distribution invalid", p.Name)
	case p.MinDocBytes <= 0 || p.MaxDocBytes < p.MinDocBytes:
		return fmt.Errorf("synth %s: size clip range invalid", p.Name)
	case p.ModifyRate < 0 || p.ModifyRate >= 1:
		return fmt.Errorf("synth %s: ModifyRate out of [0,1)", p.Name)
	case p.DurationSec <= 0:
		return fmt.Errorf("synth %s: DurationSec must be > 0", p.Name)
	case p.SharedDocs > math.MaxInt32 || p.PrivateDocs > 0 && (math.MaxInt32-p.SharedDocs)/p.PrivateDocs < p.Clients:
		// Every document key gets an int32 document ID.
		return fmt.Errorf("synth %s: SharedDocs + Clients·PrivateDocs exceeds the int32 document-ID space", p.Name)
	}
	return nil
}

// Generate produces the synthetic trace for a profile, resident in memory.
// It drains the one generator, GenStream, into a preallocated request slice
// and builds the symbol table from URLAt in document-ID order; the IDs are
// first-appearance, so the table is the one Intern would build, and every
// request's URL is its document's single string.
func Generate(p Profile) (*trace.Trace, error) {
	g, err := NewStream(p)
	if err != nil {
		return nil, err
	}
	reqs := make([]trace.Request, p.Requests)
	if _, err := g.Next(reqs); err != nil {
		return nil, err
	}
	syms := intern.NewTable(g.NumDocs())
	for doc := 0; doc < g.NumDocs(); doc++ {
		syms.Intern(g.URLAt(doc))
	}
	for i := range reqs {
		reqs[i].URL = syms.String(reqs[i].Doc)
	}
	return &trace.Trace{Name: p.Name, NumClients: p.Clients, Requests: reqs, Syms: syms}, nil
}

// pickRecent selects an index in the ring with geometric stack distance:
// distance 0 is the most recent entry (at position pos), distance d wraps
// backwards.
func pickRecent(rng *rand.Rand, n, pos int, geomP float64) int {
	if geomP <= 0 || geomP >= 1 {
		geomP = 0.3
	}
	d := 0
	for rng.Float64() > geomP && d < n-1 {
		d++
	}
	idx := pos - d
	for idx < 0 {
		idx += n
	}
	return idx
}

// zipf samples from a Zipf(alpha) distribution over [0,n) by inverting its
// CDF. Unlike math/rand.Zipf it supports 0 < alpha <= 1, the regime measured
// for web document popularity. alpha == 0 yields the uniform distribution.
//
// A guide table makes the inversion O(1) expected instead of a binary
// search: the draw u falls in bucket int(u·n), guide[j] is the first rank
// whose CDF value falls in bucket j or later, and the draw walks forward
// from guide[int(u·n)] over the few ranks inside its bucket. It costs 4 B
// per rank beside the CDF's 8.
type zipf struct {
	cdf   []float64
	guide []int32
}

func newZipf(n int, alpha float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		if alpha == 0 {
			sum++
		} else {
			sum += 1 / math.Pow(float64(i+1), alpha)
		}
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return guided(cdf)
}

// guided builds the sampler over a non-decreasing CDF. A bucket is computed
// the same way for a CDF value and for a draw, as the truncated float
// product int(x·n), and rounding is monotone, so every rank before
// guide[int(u·n)] has a CDF value below u: the walk needs no rounding
// correction. A bucket no CDF value reaches keeps guide 0, a lower bound
// like any other.
func guided(cdf []float64) *zipf {
	n := len(cdf)
	guide := make([]int32, n)
	j := 0
	for i, c := range cdf {
		for b := int(c * float64(n)); j <= b && j < n; j++ {
			guide[j] = int32(i)
		}
	}
	return &zipf{cdf: cdf, guide: guide}
}

func (z *zipf) sample(rng *rand.Rand) int { return z.index(rng.Float64()) }

// index maps a uniform draw u in [0,1) to its rank: the first i with
// cdf[i] >= u, clamped to the last rank against rounding in the CDF's tail
// — exactly what sort.SearchFloat64s returns, clamp included. u·n rounds
// below n for every u < 1, so the bucket is always in range.
func (z *zipf) index(u float64) int {
	n := len(z.cdf)
	i := int(z.guide[int(u*float64(n))])
	for i < n-1 && z.cdf[i] < u {
		i++
	}
	return i
}

// sizer produces deterministic lognormal document sizes from (url, version),
// with no storage: the size is a pure hash of its inputs.
type sizer struct {
	mu, sigma float64
	min, max  int64
	seed      uint64
}

func newSizer(p Profile) *sizer {
	meanBytes := p.MeanDocKB * 1024
	// For a lognormal, mean = exp(mu + sigma^2/2).
	mu := math.Log(meanBytes) - p.SizeSigma*p.SizeSigma/2
	return &sizer{mu: mu, sigma: p.SizeSigma, min: p.MinDocBytes, max: p.MaxDocBytes, seed: uint64(p.Seed)}
}

func (s *sizer) size(url []byte, version int64) int64 {
	h := s.seed
	for i := 0; i < len(url); i++ {
		h = (h ^ uint64(url[i])) * 0x100000001B3
	}
	h ^= uint64(version) * 0x9E3779B97F4A7C15
	u1 := float64(splitmix(&h)>>11) / float64(1<<53)
	u2 := float64(splitmix(&h)>>11) / float64(1<<53)
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	// Box–Muller.
	normal := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	size := int64(math.Exp(s.mu + s.sigma*normal))
	if size < s.min {
		size = s.min
	}
	if size > s.max {
		size = s.max
	}
	return size
}

func clipSize(v, min, max int64) int64 {
	if v < min {
		return min
	}
	if v > max {
		return max
	}
	return v
}

func splitmix(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
