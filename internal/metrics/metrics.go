// Package metrics provides the measurement machinery for BTR experiments:
// output-correctness timelines (the observable side of Definition 3.1),
// recovery-interval extraction, deadline-miss tracking, latency
// percentiles, and plain-text table/series rendering for the benchmark
// harness.
package metrics

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"btr/internal/sim"
)

// Interval is a half-open time range [Start, End).
type Interval struct{ Start, End sim.Time }

// Duration returns the interval's length.
func (iv Interval) Duration() sim.Time { return iv.End - iv.Start }

func (iv Interval) String() string {
	return fmt.Sprintf("[%v, %v)", iv.Start, iv.End)
}

// Timeline tracks a boolean signal over time (e.g., "outputs correct").
// Mark transitions with Set; query incorrect intervals afterwards.
type Timeline struct {
	start   sim.Time
	state   bool
	flipped []sim.Time // times at which the signal toggled
}

// NewTimeline starts a timeline at t with the given initial state.
func NewTimeline(t sim.Time, initial bool) *Timeline {
	return &Timeline{start: t, state: initial}
}

// Set records the signal value at time t. Setting the current value is a
// no-op; t must be monotonically non-decreasing.
func (tl *Timeline) Set(t sim.Time, v bool) {
	if v == tl.state {
		return
	}
	if len(tl.flipped) > 0 && t < tl.flipped[len(tl.flipped)-1] {
		panic("metrics: timeline set out of order")
	}
	tl.flipped = append(tl.flipped, t)
	tl.state = v
}

// State returns the current value.
func (tl *Timeline) State() bool { return tl.state }

// FalseIntervals returns the maximal intervals during which the signal was
// false, up to horizon.
func (tl *Timeline) FalseIntervals(horizon sim.Time) []Interval {
	var out []Interval
	state := tl.initialState()
	prev := tl.start
	for _, t := range tl.flipped {
		if !state {
			out = append(out, Interval{prev, t})
		}
		state = !state
		prev = t
	}
	if !state && prev < horizon {
		out = append(out, Interval{prev, horizon})
	}
	return out
}

func (tl *Timeline) initialState() bool {
	// state after len(flipped) toggles equals current; recover initial.
	if len(tl.flipped)%2 == 0 {
		return tl.state
	}
	return !tl.state
}

// Recovery describes one fault-to-recovery episode.
type Recovery struct {
	FaultAt   sim.Time
	RecoverAt sim.Time // end of the last incorrect output attributable to it
}

// Duration is the measured recovery time.
func (r Recovery) Duration() sim.Time { return r.RecoverAt - r.FaultAt }

// MatchRecoveries pairs fault injection times with incorrect-output
// intervals: each fault's recovery extends to the end of the last
// incorrect interval that begins before the next fault. Faults with no
// incorrect output recover instantly (duration 0).
func MatchRecoveries(faults []sim.Time, bad []Interval) []Recovery {
	slices.Sort(faults)
	out := make([]Recovery, 0, len(faults))
	for i, f := range faults {
		next := sim.Never
		if i+1 < len(faults) {
			next = faults[i+1]
		}
		rec := Recovery{FaultAt: f, RecoverAt: f}
		for _, iv := range bad {
			if iv.End <= f || iv.Start >= next {
				continue
			}
			if iv.End > rec.RecoverAt {
				rec.RecoverAt = iv.End
			}
		}
		out = append(out, rec)
	}
	return out
}

// Series collects scalar samples for percentile statistics.
type Series struct {
	name    string
	samples []float64
}

// NewSeries creates a named sample collector.
func NewSeries(name string) *Series { return &Series{name: name} }

// Add appends a sample.
func (s *Series) Add(v float64) { s.samples = append(s.samples, v) }

// AddTime appends a sim.Time sample in milliseconds.
func (s *Series) AddTime(t sim.Time) { s.Add(t.Millis()) }

// N returns the sample count.
func (s *Series) N() int { return len(s.samples) }

// Percentile returns the p-th percentile (0..100) by nearest-rank; 0 for
// an empty series.
func (s *Series) Percentile(p float64) float64 {
	if len(s.samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.samples...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Mean returns the arithmetic mean (0 for empty).
func (s *Series) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.samples {
		sum += v
	}
	return sum / float64(len(s.samples))
}

// Max returns the maximum sample (0 for empty).
func (s *Series) Max() float64 {
	var max float64
	for i, v := range s.samples {
		if i == 0 || v > max {
			max = v
		}
	}
	return max
}

// Min returns the minimum sample (0 for empty).
func (s *Series) Min() float64 {
	var min float64
	for i, v := range s.samples {
		if i == 0 || v < min {
			min = v
		}
	}
	return min
}

// Table renders experiment results as aligned plain text, the format the
// benchmark harness prints for every reproduced figure/table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, cols ...string) *Table {
	return &Table{Title: title, Columns: cols}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case sim.Time:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a footnote line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range t.Columns {
		b.WriteString(strings.Repeat("-", widths[i]))
		b.WriteString("  ")
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, cell := range row {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s  ", w, cell)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
