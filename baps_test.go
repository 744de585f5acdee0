package baps

import (
	"context"
	"strings"
	"testing"
)

// smallOpts shrinks the experiment workloads for fast tests.
var smallOpts = Options{Scale: 0.03}

func TestGenerateTrace(t *testing.T) {
	tr, err := GenerateTrace("canet2", 0)
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateTrace("nope", 0); err == nil {
		t.Fatal("unknown profile accepted")
	}
	scaled, err := GenerateTraceScaled("canet2", 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(scaled.Requests) >= len(tr.Requests) {
		t.Fatal("scaling did not shrink the trace")
	}
	reseeded, err := GenerateTrace("canet2", 777)
	if err != nil {
		t.Fatal(err)
	}
	if reseeded.Requests[0] == tr.Requests[0] && reseeded.Requests[1] == tr.Requests[1] {
		t.Log("seed override produced identical prefix (unlikely but possible)")
	}
}

func TestProfileRegistryFacade(t *testing.T) {
	if len(Profiles()) != 5 || len(ProfileNames()) != 5 {
		t.Fatal("expected 5 profiles")
	}
	if len(Organizations()) != 5 {
		t.Fatal("expected 5 organizations")
	}
}

func TestRunFacade(t *testing.T) {
	tr, err := GenerateTraceScaled("nlanr-bo1", 0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tr, DefaultSimConfig(BrowsersAware))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	st := ComputeStats(tr)
	if res.HitRatio() > st.MaxHitRatio+1e-9 {
		t.Fatalf("hit ratio %.4f above infinite-cache ceiling %.4f", res.HitRatio(), st.MaxHitRatio)
	}
}

func TestTable1Driver(t *testing.T) {
	tab, err := Table1(smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	for _, want := range []string{"nlanr-uc", "nlanr-bo1", "bu-95", "bu-98", "canet2", "Max Hit Ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("Table 1 has %d rows", len(tab.Rows))
	}
}

func TestFigure2Driver(t *testing.T) {
	hit, byteHit, err := Figure2(smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(hit.Lines) != 5 || len(byteHit.Lines) != 5 {
		t.Fatalf("Figure 2 lines: %d/%d", len(hit.Lines), len(byteHit.Lines))
	}
	// BAPS tops every size point on the hit-ratio figure.
	var baps, palb []float64
	for _, l := range hit.Lines {
		switch l.Name {
		case "browsers-aware-proxy-server":
			baps = l.Y
		case "proxy-and-local-browser":
			palb = l.Y
		}
	}
	if baps == nil || palb == nil {
		t.Fatal("expected organizations missing")
	}
	for i := range baps {
		if baps[i] < palb[i] {
			t.Errorf("size %g: BAPS %.2f < P+LB %.2f", hit.X[i], baps[i], palb[i])
		}
	}
}

func TestFigure3Driver(t *testing.T) {
	hit, byteHit, err := Figure3(smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(hit.Lines) != 3 || len(byteHit.Lines) != 3 {
		t.Fatal("breakdown must have 3 components")
	}
	// Remote-browser hits must not be negligible at every size — the
	// point of Figure 3.
	for _, l := range hit.Lines {
		if l.Name == "remote-browsers" {
			total := 0.0
			for _, y := range l.Y {
				total += y
			}
			if total <= 0 {
				t.Error("no remote-browser hits anywhere")
			}
		}
	}
}

func TestFigure4Through7Drivers(t *testing.T) {
	drivers := map[string]func(Options) (*Series, *Series, error){
		"Figure4": Figure4, "Figure5": Figure5, "Figure6": Figure6, "Figure7": Figure7,
	}
	for name, f := range drivers {
		hit, byteHit, err := f(smallOpts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(hit.Lines) != 2 || len(byteHit.Lines) != 2 {
			t.Fatalf("%s: wrong line count", name)
		}
	}
}

func TestFigure8Driver(t *testing.T) {
	hr, bhr, err := Figure8(smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(hr.Lines) != 3 || len(bhr.Lines) != 3 {
		t.Fatal("Figure 8 needs 3 traces")
	}
	if len(hr.X) != 4 {
		t.Fatal("Figure 8 needs 4 client fractions")
	}
}

func TestMemoryStudyDriver(t *testing.T) {
	tab, err := MemoryStudyReport(Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("memory study rows = %d", len(tab.Rows))
	}
}

func TestOverheadDriver(t *testing.T) {
	tab, err := OverheadReport(smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("overhead rows = %d", len(tab.Rows))
	}
}

func TestIndexCompressionDriver(t *testing.T) {
	tab, err := IndexCompressionReport(Options{Scale: 0.02}, "nlanr-bo1", 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("compression rows = %d", len(tab.Rows))
	}
}

func TestSecurityDriver(t *testing.T) {
	tab, err := SecurityReport(1024, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Watermark sign and verify: the two §6 overheads the paper names.
	if len(tab.Rows) != 2 {
		t.Fatalf("security rows = %d", len(tab.Rows))
	}
}

func TestClusterLifecycle(t *testing.T) {
	pcfg := ProxyConfig{}
	c, err := StartCluster(ClusterConfig{
		Agents: 2,
		Proxy: func() ProxyConfig {
			pcfg.CacheCapacity = 1 << 20
			pcfg.MemFraction = 0.1
			pcfg.KeyBits = 1024
			pcfg.CachePeerDocs = true
			return pcfg
		}(),
		MutateAgent: func(i int, cfg *AgentConfig) { cfg.CacheCapacity = 1 << 20 },
	})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer c.Close()
	ctx := context.Background()
	u := c.DocURL("/hello?size=2000")
	_, src, err := c.Agents[0].Get(ctx, u)
	if err != nil || src != SourceOrigin {
		t.Fatalf("first get: %v %v", src, err)
	}
	_, src, err = c.Agents[1].Get(ctx, u)
	if err != nil || src != SourceProxy {
		t.Fatalf("second get: %v %v", src, err)
	}
	if c.Proxy.Snapshot().Requests != 2 {
		t.Fatalf("proxy requests = %d", c.Proxy.Snapshot().Requests)
	}
}
