// Package stats provides the small statistical and tabulation helpers shared
// by the simulator and the experiment harness: streaming means, geometric
// means, weighted integrals, and fixed-width ASCII tables in the style of the
// paper's result figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean accumulates a streaming arithmetic mean.
// The zero value is ready to use.
type Mean struct {
	n   int64
	sum float64
}

// Add folds x into the mean.
func (m *Mean) Add(x float64) {
	m.n++
	m.sum += x
}

// AddN folds x in with weight n.
func (m *Mean) AddN(x float64, n int64) {
	m.n += n
	m.sum += x * float64(n)
}

// N reports the number of samples (including weights).
func (m *Mean) N() int64 { return m.n }

// Value reports the current mean, or 0 when empty.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Sum reports the accumulated total.
func (m *Mean) Sum() float64 { return m.sum }

// GeoMean returns the geometric mean of xs, ignoring non-positive entries
// (the convention used for normalized energy-delay aggregation).
func GeoMean(xs []float64) float64 {
	var logSum float64
	var n int
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		logSum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// WeightedFraction integrates a piecewise-constant quantity over time:
// value v held for duration d contributes v*d. Value() reports the
// time-weighted average. It is used for the DRI cache's average active
// fraction ("average cache size" in Figure 3, right).
type WeightedFraction struct {
	num float64
	den float64
}

// Add records value v held for duration d (d <= 0 is ignored).
func (w *WeightedFraction) Add(v, d float64) {
	if d <= 0 {
		return
	}
	w.num += v * d
	w.den += d
}

// Value reports the time-weighted average, or 0 when nothing was recorded.
func (w *WeightedFraction) Value() float64 {
	if w.den == 0 {
		return 0
	}
	return w.num / w.den
}

// Duration reports the total integrated duration.
func (w *WeightedFraction) Duration() float64 { return w.den }

// Histogram counts occurrences of small non-negative integer keys, used for
// cache-size residency histograms.
type Histogram struct {
	counts map[int]int64
}

// Add increments the count for key k by n.
func (h *Histogram) Add(k int, n int64) {
	if h.counts == nil {
		h.counts = make(map[int]int64)
	}
	h.counts[k] += n
}

// Keys returns the recorded keys in ascending order.
func (h *Histogram) Keys() []int {
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Count returns the count recorded for key k.
func (h *Histogram) Count(k int) int64 { return h.counts[k] }

// Total returns the sum of all counts.
func (h *Histogram) Total() int64 {
	var t int64
	for _, c := range h.counts {
		t += c
	}
	return t
}

// Table builds fixed-width ASCII tables for the cmd tools and the
// experiments report.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		cells = cells[:len(t.header)]
	}
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowf appends a row formatting each value with %v, floats as %.3f.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			row = append(row, fmt.Sprintf("%.3f", v))
		case float32:
			row = append(row, fmt.Sprintf("%.3f", v))
		default:
			row = append(row, fmt.Sprint(v))
		}
	}
	t.AddRow(row...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	rule := make([]string, len(t.header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// BarChart renders labeled horizontal bars, the textual analogue of the
// paper's result figures. Values are scaled so the largest bar spans
// `width` characters; a second segment (stacked, rendered with a lighter
// glyph) can be supplied via stack (nil for plain bars).
type BarChart struct {
	width  int
	labels []string
	values []float64
	stacks []float64
	notes  []string
}

// NewBarChart creates a chart with bars up to width characters.
func NewBarChart(width int) *BarChart {
	if width < 10 {
		width = 10
	}
	return &BarChart{width: width}
}

// Add appends a bar: value is the solid segment, stack an optional second
// segment stacked on top (use 0 for none), note a suffix annotation.
func (b *BarChart) Add(label string, value, stack float64, note string) {
	b.labels = append(b.labels, label)
	b.values = append(b.values, value)
	b.stacks = append(b.stacks, stack)
	b.notes = append(b.notes, note)
}

// String renders the chart.
func (b *BarChart) String() string {
	if len(b.labels) == 0 {
		return ""
	}
	maxTotal := 0.0
	labelW := 0
	for i := range b.labels {
		if t := b.values[i] + b.stacks[i]; t > maxTotal {
			maxTotal = t
		}
		if len(b.labels[i]) > labelW {
			labelW = len(b.labels[i])
		}
	}
	if maxTotal <= 0 {
		maxTotal = 1
	}
	var out strings.Builder
	for i := range b.labels {
		solid := int(b.values[i] / maxTotal * float64(b.width))
		light := int((b.values[i] + b.stacks[i]) / maxTotal * float64(b.width))
		if light < solid {
			light = solid
		}
		out.WriteString(fmt.Sprintf("%-*s |%s%s%s", labelW, b.labels[i],
			strings.Repeat("█", solid),
			strings.Repeat("░", light-solid),
			strings.Repeat(" ", b.width-light)))
		if b.notes[i] != "" {
			out.WriteString("  " + b.notes[i])
		}
		out.WriteByte('\n')
	}
	return out.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	b.WriteString("| " + strings.Join(t.header, " | ") + " |\n")
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}
