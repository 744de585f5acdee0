// Package stats provides the small numeric and presentation substrate the
// experiment harness uses: aligned text tables for the paper's Table 1,
// series containers for its figures (rendered as aligned columns and as
// coarse ASCII charts), and formatting helpers.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Table is a titled text table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; missing cells render empty, extra cells are kept.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i >= len(width) {
				width = append(width, 0)
			}
			if len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i := 0; i < len(width); i++ {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(width))
	for i, w := range width {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Line is one named series of a figure.
type Line struct {
	Name string
	Y    []float64
}

// Series is a figure: a shared X axis with one or more lines. Values are
// typically percentages.
type Series struct {
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Lines  []Line
}

// NewSeries creates a figure container.
func NewSeries(title, xlabel, ylabel string, x ...float64) *Series {
	return &Series{Title: title, XLabel: xlabel, YLabel: ylabel, X: x}
}

// Add appends a line; y must match the X axis length.
func (s *Series) Add(name string, y ...float64) error {
	if len(y) != len(s.X) {
		return fmt.Errorf("stats: series %q: %d values for %d x points", name, len(y), len(s.X))
	}
	s.Lines = append(s.Lines, Line{Name: name, Y: y})
	return nil
}

// MustAdd is Add, panicking on length mismatch (programmer error).
func (s *Series) MustAdd(name string, y ...float64) {
	if err := s.Add(name, y...); err != nil {
		panic(err)
	}
}

// Table renders the series as an aligned table, one row per X value.
func (s *Series) Table() *Table {
	cols := append([]string{s.XLabel}, make([]string, len(s.Lines))...)
	for i, l := range s.Lines {
		cols[i+1] = l.Name
	}
	t := NewTable(s.Title, cols...)
	for xi, x := range s.X {
		row := make([]string, len(cols))
		row[0] = trimFloat(x)
		for li, l := range s.Lines {
			row[li+1] = fmt.Sprintf("%.2f", l.Y[xi])
		}
		t.AddRow(row...)
	}
	return t
}

// String renders the series table followed by an ASCII chart.
func (s *Series) String() string {
	return s.Table().String() + "\n" + s.Chart(48)
}

// Chart renders a coarse horizontal bar chart, one bar per (x, line) pair,
// scaled to width characters at the maximum Y.
func (s *Series) Chart(width int) string {
	if width < 8 {
		width = 8
	}
	max := 0.0
	for _, l := range s.Lines {
		for _, y := range l.Y {
			if y > max {
				max = y
			}
		}
	}
	if max <= 0 {
		max = 1
	}
	nameW := 0
	for _, l := range s.Lines {
		if len(l.Name) > nameW {
			nameW = len(l.Name)
		}
	}
	var b strings.Builder
	for xi, x := range s.X {
		fmt.Fprintf(&b, "%s=%s (%s)\n", s.XLabel, trimFloat(x), s.YLabel)
		for _, l := range s.Lines {
			n := int(math.Round(l.Y[xi] / max * float64(width)))
			if n < 0 {
				n = 0
			}
			fmt.Fprintf(&b, "  %-*s |%s %.2f\n", nameW, l.Name, strings.Repeat("#", n), l.Y[xi])
		}
	}
	return b.String()
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%.3f", x)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// Pct formats a ratio in [0,1] as a percentage with two decimals.
func Pct(ratio float64) string {
	return fmt.Sprintf("%.2f%%", ratio*100)
}

// Bytes humanizes a byte count (KB/MB/GB, powers of 1024).
func Bytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for v := n / unit; v >= unit; v /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.2f %cB", float64(n)/float64(div), "KMGTPE"[exp])
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the sample standard deviation of xs (0 for fewer than two
// values).
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Ratio returns num/den, or 0 when den == 0.
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
