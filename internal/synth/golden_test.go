package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"baps/internal/intern"
	"baps/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the pinned trace digests")

const goldenTracesPath = "testdata/golden_traces.json"

// goldenTrace is the pinned identity of one generated trace: digests of the
// request sequence and of the URL table, plus its shape.
type goldenTrace struct {
	Name      string `json:"name"`
	Requests  int    `json:"requests"`
	Docs      int    `json:"docs"`
	ReqSHA256 string `json:"requests_sha256"`
	URLSHA256 string `json:"urls_sha256"`
}

// millionShape is synth-1m's shape at a smaller population and request
// count, with the shared universe and the duration scaled with the requests
// (the scaling the benchmark's sim.stream workload applies).
func millionShape(clients, requests int) Profile {
	m := MillionClients()
	scale := float64(requests) / float64(m.Requests)
	m.Clients = clients
	m.Requests = requests
	m.SharedDocs = int(float64(m.SharedDocs) * scale)
	m.DurationSec *= scale
	return m
}

// goldenProfiles lists the pinned cases: every paper profile at 2 %, the
// benchmark's sim.sweep input (nlanr-uc at half scale) at seeds +1 and +2,
// synth-1m's shape at 50 000 clients and 100 000 requests, and the
// benchmark's sim.stream input (that shape at 1 000 000 requests) at seeds
// +1 and +2.
func goldenProfiles() []Profile {
	var ps []Profile
	for _, p := range Profiles() {
		q := Scaled(p, 0.02)
		q.Name = fmt.Sprintf("%s@0.02", p.Name)
		ps = append(ps, q)
	}
	for _, seed := range []int64{1, 2} {
		q := Scaled(profileNLANRuc(), 0.5)
		q.Seed += seed
		q.Name = fmt.Sprintf("nlanr-uc@0.5+seed%d", seed)
		ps = append(ps, q)
	}
	m := millionShape(50_000, 100_000)
	m.Name = "synth-1m@50k/100k"
	ps = append(ps, m)
	for _, seed := range []int64{1, 2} {
		q := millionShape(50_000, 1_000_000)
		q.Seed += seed
		q.Name = fmt.Sprintf("synth-1m@50k/1M+seed%d", seed)
		ps = append(ps, q)
	}
	return ps
}

// hashRequests adds a request sequence to a running request digest.
func hashRequests(h hash.Hash, reqs []trace.Request) {
	var rec [32]byte
	for _, r := range reqs {
		binary.LittleEndian.PutUint64(rec[0:], math.Float64bits(r.Time))
		binary.LittleEndian.PutUint64(rec[8:], uint64(r.Client))
		binary.LittleEndian.PutUint64(rec[16:], uint64(r.Doc))
		binary.LittleEndian.PutUint64(rec[24:], uint64(r.Size))
		h.Write(rec[:])
	}
}

// digest hashes a request sequence and the URL table (in document-ID order)
// the way the golden file records them.
func digest(name string, reqs []trace.Request, docs int, urlAt func(int) string) goldenTrace {
	rh := sha256.New()
	hashRequests(rh, reqs)
	return digestOf(name, len(reqs), rh, docs, urlAt)
}

// streamDigest drains a generator in batches of the given size, hashing as
// it goes, so a million-request case is never resident twice.
func streamDigest(t *testing.T, name string, g *GenStream, batch int) goldenTrace {
	t.Helper()
	rh := sha256.New()
	buf := make([]trace.Request, batch)
	n := 0
	for {
		k, err := g.Next(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		hashRequests(rh, buf[:k])
		n += k
	}
	return digestOf(name, n, rh, g.NumDocs(), g.URLAt)
}

func digestOf(name string, requests int, rh hash.Hash, docs int, urlAt func(int) string) goldenTrace {
	uh := sha256.New()
	for doc := 0; doc < docs; doc++ {
		uh.Write([]byte(urlAt(doc)))
		uh.Write([]byte{'\n'})
	}
	return goldenTrace{
		Name:      name,
		Requests:  requests,
		Docs:      docs,
		ReqSHA256: hex.EncodeToString(rh.Sum(nil)),
		URLSHA256: hex.EncodeToString(uh.Sum(nil)),
	}
}

// TestGoldenTraces pins the generator's output: Generate and a drained
// NewStream (with URLAt) must both reproduce the recorded digests exactly,
// so no change to how traces are produced can move a request, a size, a
// document ID or a URL. Regenerate with -update only for a deliberate
// change to the generated workload.
func TestGoldenTraces(t *testing.T) {
	var got []goldenTrace
	for _, p := range goldenProfiles() {
		tr, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		gen := digest(p.Name, tr.Requests, tr.NumDocs(), func(doc int) string {
			return tr.Syms.String(intern.ID(doc))
		})

		g, err := NewStream(p)
		if err != nil {
			t.Fatal(err)
		}
		str := streamDigest(t, p.Name, g, 777) // batch size must not matter
		if str != gen {
			t.Errorf("%s: stream %+v, Generate %+v", p.Name, str, gen)
		}
		got = append(got, gen)
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenTracesPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTracesPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenTracesPath)
	if err != nil {
		t.Fatalf("%v (run go test -run TestGoldenTraces -update to record)", err)
	}
	var want []goldenTrace
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("case %d diverged from golden:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
