package metrics

import (
	"strings"
	"testing"
	"testing/quick"

	"btr/internal/sim"
)

func TestTimelineBasics(t *testing.T) {
	tl := NewTimeline(0, true)
	tl.Set(10, false)
	tl.Set(25, true)
	tl.Set(40, false)
	ivs := tl.FalseIntervals(100)
	if len(ivs) != 2 {
		t.Fatalf("false intervals = %v", ivs)
	}
	if ivs[0] != (Interval{10, 25}) || ivs[1] != (Interval{40, 100}) {
		t.Errorf("intervals wrong: %v", ivs)
	}
}

func TestTimelineInitiallyFalse(t *testing.T) {
	tl := NewTimeline(5, false)
	tl.Set(20, true)
	ivs := tl.FalseIntervals(100)
	if len(ivs) != 1 || ivs[0] != (Interval{5, 20}) {
		t.Errorf("intervals = %v", ivs)
	}
}

func TestTimelineRedundantSet(t *testing.T) {
	tl := NewTimeline(0, true)
	tl.Set(10, true) // no-op
	tl.Set(20, false)
	tl.Set(30, false) // no-op
	if got := len(tl.FalseIntervals(50)); got != 1 {
		t.Errorf("intervals = %d, want 1", got)
	}
}

func TestTimelineAlwaysTrue(t *testing.T) {
	tl := NewTimeline(0, true)
	if ivs := tl.FalseIntervals(100); len(ivs) != 0 {
		t.Errorf("intervals = %v, want none", ivs)
	}
}

func TestTimelineOutOfOrderPanics(t *testing.T) {
	tl := NewTimeline(0, true)
	tl.Set(50, false)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Set did not panic")
		}
	}()
	tl.Set(10, true)
}

func TestTimelinePropertyTotalMatchesIntervals(t *testing.T) {
	f := func(raw []uint16) bool {
		tl := NewTimeline(0, true)
		t1 := sim.Time(0)
		v := true
		var want sim.Time // false time, summed as the toggles are made
		for _, r := range raw {
			next := t1 + sim.Time(r%1000) + 1
			if !v {
				want += next - t1
			}
			t1, v = next, !v
			tl.Set(t1, v)
		}
		horizon := t1 + 1000
		if !v {
			want += horizon - t1
		}
		var sum sim.Time
		for _, iv := range tl.FalseIntervals(horizon) {
			if iv.End <= iv.Start {
				return false
			}
			sum += iv.Duration()
		}
		return sum == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMatchRecoveries(t *testing.T) {
	faults := []sim.Time{100, 500}
	bad := []Interval{{120, 180}, {510, 600}}
	recs := MatchRecoveries(faults, bad)
	if len(recs) != 2 {
		t.Fatalf("recoveries = %v", recs)
	}
	if recs[0].Duration() != 80 {
		t.Errorf("first recovery = %v, want 80", recs[0].Duration())
	}
	if recs[1].Duration() != 100 {
		t.Errorf("second recovery = %v, want 100", recs[1].Duration())
	}
}

func TestMatchRecoveriesNoBadOutput(t *testing.T) {
	recs := MatchRecoveries([]sim.Time{100}, nil)
	if len(recs) != 1 || recs[0].Duration() != 0 {
		t.Errorf("recoveries = %v, want single instant recovery", recs)
	}
}

func TestMatchRecoveriesAttributionWindow(t *testing.T) {
	// A bad interval starting after the second fault belongs to the
	// second fault only.
	faults := []sim.Time{100, 200}
	bad := []Interval{{250, 300}}
	recs := MatchRecoveries(faults, bad)
	if recs[0].Duration() != 0 {
		t.Errorf("first fault wrongly charged: %v", recs[0])
	}
	if recs[1].Duration() != 100 {
		t.Errorf("second recovery = %v, want 100", recs[1].Duration())
	}
}

func TestSeriesStats(t *testing.T) {
	s := NewSeries("lat")
	for _, v := range []float64{5, 1, 4, 2, 3} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if got := s.Percentile(50); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries("empty")
	if s.Percentile(50) != 0 || s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 {
		t.Error("empty series stats should be zero")
	}
}

func TestSeriesAddTime(t *testing.T) {
	s := NewSeries("t")
	s.AddTime(1500 * sim.Microsecond)
	if s.Mean() != 1.5 {
		t.Errorf("AddTime stored %v, want 1.5ms", s.Mean())
	}
}

func TestSeriesPercentileMonotone(t *testing.T) {
	f := func(vals []float64, a, b uint8) bool {
		if len(vals) == 0 {
			return true
		}
		s := NewSeries("q")
		for _, v := range vals {
			s.Add(v)
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return s.Percentile(pa) <= s.Percentile(pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("E2: replication cost", "f", "protocol", "replicas", "util")
	tb.AddRow(1, "BTR", 2, 0.42)
	tb.AddRow(1, "BFT", 4, 0.91)
	tb.Note("source replicas excluded")
	out := tb.String()
	for _, want := range []string{"E2: replication cost", "protocol", "BTR", "0.910", "note: source"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestTableTimeFormatting(t *testing.T) {
	tb := NewTable("t", "bound")
	tb.AddRow(75 * sim.Millisecond)
	if !strings.Contains(tb.String(), "75.000ms") {
		t.Errorf("time not formatted: %s", tb.String())
	}
}

func TestIntervalString(t *testing.T) {
	iv := Interval{sim.Millisecond, 2 * sim.Millisecond}
	if iv.String() != "[1.000ms, 2.000ms)" {
		t.Errorf("String = %q", iv.String())
	}
}
