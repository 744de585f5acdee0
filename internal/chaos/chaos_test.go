package chaos

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"baps/internal/proxy"
)

func TestInjectorDeterministic(t *testing.T) {
	a, b := NewInjector(7), NewInjector(7)
	a.Probabilities(0.3, 0.2, 0.1)
	b.Probabilities(0.3, 0.2, 0.1)
	for i := 0; i < 200; i++ {
		if fa, fb := a.Next(), b.Next(); fa != fb {
			t.Fatalf("draw %d: %v != %v (same seed must give same schedule)", i, fa, fb)
		}
	}
	c := NewInjector(8)
	c.Probabilities(0.3, 0.2, 0.1)
	diverged := false
	d := NewInjector(7)
	d.Probabilities(0.3, 0.2, 0.1)
	for i := 0; i < 200; i++ {
		if c.Next() != d.Next() {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical 200-draw schedules")
	}
}

func TestInjectorForcedScheduleFirst(t *testing.T) {
	in := NewInjector(1)
	in.Force(FaultDown, FaultCorrupt)
	if f := in.Next(); f != FaultDown {
		t.Fatalf("first forced fault = %v", f)
	}
	if f := in.Next(); f != FaultCorrupt {
		t.Fatalf("second forced fault = %v", f)
	}
	// No probabilities configured: the rest of the schedule is clean.
	for i := 0; i < 50; i++ {
		if f := in.Next(); f != FaultNone {
			t.Fatalf("draw %d after forced schedule = %v, want none", i, f)
		}
	}
}

func TestCorruptingReaderFlipsBytes(t *testing.T) {
	orig := make([]byte, 300)
	for i := range orig {
		orig[i] = byte(i)
	}
	cp := append([]byte(nil), orig...)
	CorruptBody(cp)
	if string(cp) == string(orig) {
		t.Fatal("CorruptBody changed nothing")
	}
	diff := 0
	for i := range orig {
		if cp[i] != orig[i] {
			diff++
		}
	}
	if want := (len(orig) + corruptStride - 1) / corruptStride; diff != want {
		t.Fatalf("corrupted %d bytes, want %d", diff, want)
	}
}

// TestTransportDropRetried proves the proxy's retry/backoff path end to end:
// a fault-injecting transport drops the first origin connection, the
// retry succeeds, the client never sees the failure.
func TestTransportDropRetried(t *testing.T) {
	originTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("retried body"))
	}))
	defer originTS.Close()

	in := NewInjector(3)
	in.Force(FaultDown)
	cfg := proxy.DefaultConfig()
	cfg.KeyBits = 1024
	cfg.OriginRetries = 2
	cfg.Transport = &RoundTripper{Injector: in}
	s, err := proxy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(""); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	resp, err := http.Get(s.BaseURL() + "/fetch?url=" + url.QueryEscape(originTS.URL+"/doc"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "retried body" {
		t.Fatalf("status %d body %q after injected drop", resp.StatusCode, body)
	}
	if st := s.Snapshot(); st.OriginRetries < 1 {
		t.Fatalf("retries not recorded: %+v", st)
	}
}

// TestTransportDropExhaustsRetries: a schedule longer than the retry budget
// surfaces as 502 — the proxy gives up rather than looping forever.
func TestTransportDropExhaustsRetries(t *testing.T) {
	originTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("never seen"))
	}))
	defer originTS.Close()

	in := NewInjector(3)
	in.Force(FaultDown, FaultDown, FaultDown)
	cfg := proxy.DefaultConfig()
	cfg.KeyBits = 1024
	cfg.OriginRetries = 2
	cfg.Transport = &RoundTripper{Injector: in}
	s, err := proxy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(""); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	resp, err := http.Get(s.BaseURL() + "/fetch?url=" + url.QueryEscape(originTS.URL+"/doc"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 after exhausted retries", resp.StatusCode)
	}
	if st := s.Snapshot(); st.OriginRetries != 2 {
		t.Fatalf("retries = %d, want 2: %+v", st.OriginRetries, st)
	}
}
