package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func statsEqual(t *testing.T, a, b Stats) {
	t.Helper()
	if a.Name != b.Name || a.NumRequests != b.NumRequests || a.NumClients != b.NumClients {
		t.Fatalf("shape mismatch: %+v vs %+v", a, b)
	}
	if a.TotalBytes != b.TotalBytes || a.UniqueDocs != b.UniqueDocs ||
		a.InfiniteCacheBytes != b.InfiniteCacheBytes || a.SharedRequests != b.SharedRequests {
		t.Fatalf("aggregate mismatch: %+v vs %+v", a, b)
	}
	if a.MaxHitRatio != b.MaxHitRatio || a.MaxByteHitRatio != b.MaxByteHitRatio {
		t.Fatalf("ratio mismatch: %v/%v vs %v/%v", a.MaxHitRatio, a.MaxByteHitRatio, b.MaxHitRatio, b.MaxByteHitRatio)
	}
	if len(a.ClientInfiniteBytes) != len(b.ClientInfiniteBytes) {
		t.Fatalf("ClientInfiniteBytes len %d vs %d", len(a.ClientInfiniteBytes), len(b.ClientInfiniteBytes))
	}
	for i := range a.ClientInfiniteBytes {
		if a.ClientInfiniteBytes[i] != b.ClientInfiniteBytes[i] {
			t.Fatalf("ClientInfiniteBytes[%d] = %d vs %d", i, a.ClientInfiniteBytes[i], b.ClientInfiniteBytes[i])
		}
	}
	if len(a.ClientRequests) != len(b.ClientRequests) {
		t.Fatalf("ClientRequests len %d vs %d", len(a.ClientRequests), len(b.ClientRequests))
	}
	for i := range a.ClientRequests {
		if a.ClientRequests[i] != b.ClientRequests[i] {
			t.Fatalf("ClientRequests[%d] = %d vs %d", i, a.ClientRequests[i], b.ClientRequests[i])
		}
	}
}

// statsTrace builds a trace exercising every Stats code path: repeats,
// cross-client sharing, size changes (modifications), silent clients.
func statsTrace(seed int64, n int) *Trace {
	rng := rand.New(rand.NewSource(seed))
	nc := rng.Intn(12) + 2
	tr := &Trace{Name: "stats", NumClients: nc + 1} // one silent trailing client
	tm := 0.0
	nd := rng.Intn(40) + 5
	for i := 0; i < n; i++ {
		tm += rng.Float64()
		d := rng.Intn(nd)
		size := int64(100 + d*7)
		if rng.Intn(10) == 0 {
			size += int64(rng.Intn(50) + 1) // modification
		}
		tr.Requests = append(tr.Requests, Request{
			Time:   tm,
			Client: rng.Intn(nc),
			URL:    fmt.Sprintf("http://h/%d", d),
			Size:   size,
		})
	}
	tr.Intern()
	return tr
}

// StreamStats over the binary format (which drops URLs — Stats never
// needed them) must equal Compute bit-for-bit.
func TestStreamStatsOverBTR(t *testing.T) {
	tr := statsTrace(42, 5000)
	want := Compute(tr)
	var buf bytes.Buffer
	if err := WriteBTR(&buf, tr); err != nil {
		t.Fatal(err)
	}
	r, err := OpenBTR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := StreamStats(r)
	if err != nil {
		t.Fatal(err)
	}
	statsEqual(t, got, want)
}

// ...and through the streaming text decoder.
func TestStreamStatsOverText(t *testing.T) {
	tr := statsTrace(17, 3000)
	// The text format quantizes times; re-read for a fair comparison.
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	reread, err := Read(strings.NewReader(text), "stats")
	if err != nil {
		t.Fatal(err)
	}
	want := Compute(reread)
	got, err := StreamStats(NewTextStream(strings.NewReader(text), "stats"))
	if err != nil {
		t.Fatal(err)
	}
	statsEqual(t, got, want)
}

func TestSliceStreamBatches(t *testing.T) {
	tr := statsTrace(3, 100)
	s := NewSliceStream(tr)
	var got []Request
	buf := make([]Request, 7)
	for {
		n, err := s.Next(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if len(got) != len(tr.Requests) {
		t.Fatalf("streamed %d, want %d", len(got), len(tr.Requests))
	}
	// Further calls keep returning EOF.
	if n, err := s.Next(buf); n != 0 || err != io.EOF {
		t.Fatalf("post-EOF Next = %d,%v", n, err)
	}
}

func TestStreamStatsRejectsNegativeIDs(t *testing.T) {
	tr := &Trace{Name: "neg", NumClients: 1, Requests: []Request{
		{Time: 0, Client: -1, URL: "u", Doc: 0, Size: 1},
	}}
	tr.Syms = nil
	// Bypass Intern's validation by handing the stream directly.
	s := &SliceStream{t: &Trace{Name: "neg", NumClients: 1, Requests: tr.Requests}}
	s.t.Syms = nil
	if _, err := StreamStats(s); err == nil {
		t.Fatal("StreamStats accepted a negative client ID")
	}
}

func TestTextStreamLineTooLong(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("1.0 0 10 http://ok/a\n")
	sb.WriteString("2.0 0 10 http://")
	sb.WriteString(strings.Repeat("x", maxLineBytes+10))
	sb.WriteString("\n")
	_, err := Read(strings.NewReader(sb.String()), "t")
	if err == nil {
		t.Fatal("Read accepted an oversized line")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error lacks line number: %v", err)
	}
	if !strings.Contains(err.Error(), ErrLineTooLong.Error()) {
		t.Fatalf("error is not ErrLineTooLong: %v", err)
	}
}

func TestTextStreamLineTooLongErrorsIs(t *testing.T) {
	in := "0.5 0 10 http://" + strings.Repeat("y", maxLineBytes) + "\n"
	_, err := Read(strings.NewReader(in), "t")
	if err == nil {
		t.Fatal("accepted oversized line")
	}
	if !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("errors.Is(err, ErrLineTooLong) = false for %v", err)
	}
}

// The fast byte-level float parser must agree bit-for-bit with strconv.
func TestFastFloatMatchesStrconv(t *testing.T) {
	cases := []string{
		"0", "1", "-1", "0.5", "1.25", "123.456", "0.001", "874.5",
		"1.", ".5", "+3.75", "99999999999999.999", "-0", "0.000",
		"184467440737095516.15", // 20 digits -> fallback
		"1e3", "2.5E-2", "inf",  // fallback paths
	}
	for _, c := range cases {
		want, werr := strconv.ParseFloat(c, 64)
		got, gerr := parseFloatBytes([]byte(c))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%q: err mismatch %v vs %v", c, gerr, werr)
		}
		if werr == nil && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q: %v (%x) != strconv %v (%x)", c, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		s := fmt.Sprintf("%d.%03d", rng.Intn(1000000), rng.Intn(1000))
		want, _ := strconv.ParseFloat(s, 64)
		got, err := parseFloatBytes([]byte(s))
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q: %v != %v", s, got, want)
		}
	}
}

// FuzzRead: the text parser must never panic and must only produce valid
// traces, whatever the input bytes.
func FuzzRead(f *testing.F) {
	f.Add("# baps trace t clients=1 requests=1\n1.0 0 100 http://x/a\n")
	f.Add("1.0 0 100 http://x/a\n2.0 1 50 http://x/b")
	f.Add("")
	f.Add("# comment only\n\n")
	f.Add("nan 0 1 u\n")
	f.Add("1.0 0 1 u extra\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := Read(strings.NewReader(input), "fuzz")
		if err != nil {
			return
		}
		if verr := tr.Validate(); verr != nil {
			t.Fatalf("Read accepted invalid trace: %v", verr)
		}
	})
}

// BenchmarkTraceRead measures the text decode hot path (satellite: the
// strings.Fields replacement). One synthetic text trace is decoded per
// iteration pair; bytes/op counts the input size.
func BenchmarkTraceRead(b *testing.B) {
	tr := statsTrace(1, 50000)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data), "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceReadBTR is the binary-format counterpart (streaming,
// no URL materialization).
func BenchmarkTraceReadBTR(b *testing.B) {
	tr := statsTrace(1, 50000)
	var buf bytes.Buffer
	if err := WriteBTR(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	batch := make([]Request, StreamBatchSize)
	for i := 0; i < b.N; i++ {
		r, err := OpenBTR(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		for {
			n, err := r.Next(batch)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			_ = n
		}
	}
}
