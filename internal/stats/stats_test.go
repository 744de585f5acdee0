package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("Title", "Name", "Value")
	tb.AddRow("alpha", "1")
	tb.AddRow("a-very-long-name", "2")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Title" {
		t.Fatalf("title line = %q", lines[0])
	}
	// Header, separator and both rows must share the same width.
	w := len(lines[1])
	for i, l := range lines[1:] {
		if len(strings.TrimRight(l, " ")) > w {
			t.Errorf("line %d wider than header: %q", i, l)
		}
	}
	if !strings.Contains(out, "a-very-long-name") {
		t.Error("row lost")
	}
	if !strings.Contains(lines[2], "----") {
		t.Errorf("separator missing: %q", lines[2])
	}
}

func TestTableShortAndExtraRows(t *testing.T) {
	tb := NewTable("", "A", "B")
	tb.AddRow("only-a")
	tb.AddRow("a", "b", "extra")
	out := tb.String()
	if strings.HasPrefix(out, "\n") {
		t.Error("empty title emitted a blank line")
	}
	if !strings.Contains(out, "only-a") {
		t.Error("short row lost")
	}
}

func TestSeriesAddValidation(t *testing.T) {
	s := NewSeries("f", "x", "%", 1, 2, 3)
	if err := s.Add("ok", 1, 2, 3); err != nil {
		t.Errorf("Add: %v", err)
	}
	if err := s.Add("bad", 1); err == nil {
		t.Error("length mismatch accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAdd did not panic on mismatch")
		}
	}()
	s.MustAdd("bad", 1)
}

func TestSeriesTableAndChart(t *testing.T) {
	s := NewSeries("Fig", "size", "%", 0.5, 1, 10)
	s.MustAdd("policy-a", 10, 20, 30)
	s.MustAdd("policy-b", 5, 10, 15)
	tab := s.Table().String()
	for _, want := range []string{"Fig", "size", "policy-a", "policy-b", "0.5", "30.00"} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
	chart := s.Chart(40)
	if !strings.Contains(chart, "#") {
		t.Error("chart has no bars")
	}
	// policy-a at x=10 is the max → full width bar.
	if !strings.Contains(chart, strings.Repeat("#", 40)) {
		t.Error("max bar not full width")
	}
	full := s.String()
	if !strings.Contains(full, "Fig") || !strings.Contains(full, "#") {
		t.Error("String missing table or chart")
	}
}

func TestChartHandlesAllZero(t *testing.T) {
	s := NewSeries("z", "x", "%", 1)
	s.MustAdd("zero", 0)
	out := s.Chart(4) // also exercises the minimum-width clamp
	if !strings.Contains(out, "0.00") {
		t.Errorf("chart output: %q", out)
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.12345); got != "12.35%" {
		t.Errorf("Pct = %q", got)
	}
	if got := Pct(0); got != "0.00%" {
		t.Errorf("Pct(0) = %q", got)
	}
}

func TestBytes(t *testing.T) {
	cases := map[int64]string{
		512:            "512 B",
		2048:           "2.00 KB",
		5 << 20:        "5.00 MB",
		3 << 30:        "3.00 GB",
		1<<40 + 1<<39:  "1.50 TB",
		1023:           "1023 B",
		1536:           "1.50 KB",
		int64(1) << 50: "1.00 PB",
	}
	for n, want := range cases {
		if got := Bytes(n); got != want {
			t.Errorf("Bytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestStd(t *testing.T) {
	if Std(nil) != 0 || Std([]float64{5}) != 0 {
		t.Error("degenerate Std != 0")
	}
	got := Std([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if got < 2.13 || got > 2.15 { // sample std ≈ 2.138
		t.Errorf("Std = %g", got)
	}
}

func TestMeanAndRatio(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean wrong")
	}
	if Ratio(1, 0) != 0 {
		t.Error("Ratio div-by-zero not guarded")
	}
	if Ratio(3, 4) != 0.75 {
		t.Error("Ratio wrong")
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{0.5: "0.5", 10: "10", 0.125: "0.125", 20.50: "20.5"}
	for x, want := range cases {
		if got := trimFloat(x); got != want {
			t.Errorf("trimFloat(%g) = %q, want %q", x, got, want)
		}
	}
}

// TestQuickTableNeverPanics: arbitrary cell content renders without panic
// and preserves every cell.
func TestQuickTableNeverPanics(t *testing.T) {
	f := func(title string, cols []string, rows [][]string) bool {
		if len(cols) == 0 {
			cols = []string{"c"}
		}
		tb := NewTable(title, cols...)
		for _, r := range rows {
			tb.AddRow(r...)
		}
		out := tb.String()
		return len(out) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
