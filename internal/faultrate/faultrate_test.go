package faultrate

import (
	"reflect"
	"testing"

	"btr/internal/adversary"
	"btr/internal/core"
	"btr/internal/flow"
	"btr/internal/metrics"
	"btr/internal/network"
	"btr/internal/sim"
)

func testParams(seed uint64) Params {
	p := sim.Time(25 * sim.Millisecond)
	return Params{
		Lambda: 8, Heal: 8 * p, Forgive: 8 * p, Period: p,
		Start: 4 * p, Horizon: 200 * p, F: 1, Seed: seed,
	}
}

func testVictims(n int) []Victim {
	var out []Victim
	for i := 0; i < n; i++ {
		out = append(out, Victim{Node: network.NodeID(i), Logicals: []flow.TaskID{"t0", "t1"}})
	}
	return out
}

// The arrival process is a pure function of (Params, victims): the same
// seed must reproduce the identical schedule, and distinct seeds must
// not (the C8 byte-determinism pin rides on the former).
func TestScheduleDeterministic(t *testing.T) {
	a := Schedule(testParams(42), testVictims(5))
	b := Schedule(testParams(42), testVictims(5))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("schedule empty — test exercises nothing")
	}
	c := Schedule(testParams(43), testVictims(5))
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// Every arrival must land inside [Start, Horizon), heal exactly Heal
// later, use a catalog behavior, and target a hosted task.
func TestScheduleBounds(t *testing.T) {
	p := testParams(7)
	arr := Schedule(p, testVictims(4))
	if len(arr) == 0 {
		t.Fatal("schedule empty")
	}
	cat := map[string]bool{}
	for _, b := range Catalog() {
		cat[b] = true
	}
	for _, a := range arr {
		if a.At < p.Start || a.At >= p.Horizon {
			t.Errorf("arrival at %v outside [%v, %v)", a.At, p.Start, p.Horizon)
		}
		if a.Heal != p.Heal {
			t.Errorf("heal delay %v, want %v", a.Heal, p.Heal)
		}
		if !cat[a.Behavior] {
			t.Errorf("behavior %q not in the catalog", a.Behavior)
		}
		if a.Task != "t0" && a.Task != "t1" {
			t.Errorf("logical %q not hosted by the victim", a.Task)
		}
	}
}

// A single victim can never hold two overlapping episodes: consecutive
// arrivals must be separated by the full influence window
// (heal + forgive + 2 periods), and every arrival sees exactly one
// active episode — itself.
func TestScheduleSingleVictimNeverOverlaps(t *testing.T) {
	p := testParams(3)
	p.Lambda = 64 // saturate: most draws find the victim still convicted
	arr := Schedule(p, testVictims(1))
	if len(arr) < 2 {
		t.Fatalf("want >=2 arrivals, got %d", len(arr))
	}
	for i, a := range arr {
		if a.ActiveAtArrival != 1 {
			t.Errorf("arrival %d: active=%d, want 1", i, a.ActiveAtArrival)
		}
		if i > 0 {
			prevEnd := arr[i-1].At + arr[i-1].Heal + linger(p)
			if a.At < prevEnd {
				t.Errorf("arrival %d at %v inside predecessor's influence window (ends %v)", i, a.At, prevEnd)
			}
		}
	}
}

// ActiveAtArrival must equal the count of influence windows (own
// included) covering the arrival instant, recomputed independently from
// the schedule itself.
func TestScheduleActiveAccounting(t *testing.T) {
	p := testParams(11)
	arr := Schedule(p, testVictims(6))
	if len(arr) == 0 {
		t.Fatal("schedule empty")
	}
	peak := 0
	for i, a := range arr {
		want := 1
		for j := 0; j < i; j++ {
			if arr[j].At+arr[j].Heal+linger(p) > a.At {
				want++
			}
		}
		if a.ActiveAtArrival != want {
			t.Errorf("arrival %d: active=%d, recount=%d", i, a.ActiveAtArrival, want)
		}
		if a.ActiveAtArrival > peak {
			peak = a.ActiveAtArrival
		}
	}
	if peak <= p.F {
		t.Fatalf("peak active %d never exceeded f=%d — λ=8 schedule exercises no over-budget regime", peak, p.F)
	}
}

// syntheticReport builds a report with one sink whose output is bad over
// the given false intervals.
func syntheticReport(period, horizon, r sim.Time, bad []metrics.Interval, degraded []metrics.Interval) *core.Report {
	tl := metrics.NewTimeline(0, true)
	for _, iv := range bad {
		tl.Set(iv.Start, false)
		tl.Set(iv.End, true)
	}
	return &core.Report{
		Horizon: horizon, Period: period, RNeeded: r,
		PerSink:  map[flow.TaskID]*metrics.Timeline{"sink": tl},
		Degraded: degraded,
	}
}

func TestClassifyThreeWays(t *testing.T) {
	const p = 25 * sim.Millisecond
	// One within-budget arrival at 100ms (tolerated spans [100, 150+25]ms
	// with R=50ms), one over-budget degraded window [400, 500]ms
	// (lead=grace=25ms), and bad output in three separate spans: one per
	// class.
	arrivals := []Arrival{
		{Fault: adversary.Fault{At: 100 * sim.Millisecond}, ActiveAtArrival: 1},
		{Fault: adversary.Fault{At: 400 * sim.Millisecond}, ActiveAtArrival: 2},
	}
	bad := []metrics.Interval{
		{Start: 100 * sim.Millisecond, End: 150 * sim.Millisecond}, // tolerated (2 periods)
		{Start: 425 * sim.Millisecond, End: 475 * sim.Millisecond}, // detected (2 periods)
		{Start: 800 * sim.Millisecond, End: 825 * sim.Millisecond}, // untolerated (1 period)
	}
	degraded := []metrics.Interval{{Start: 400 * sim.Millisecond, End: 500 * sim.Millisecond}}
	rep := syntheticReport(p, 1000*sim.Millisecond, 50*sim.Millisecond, bad, degraded)
	out := Classify(rep, arrivals, 1, p, p)
	if out.Tolerated != 2 || out.Detected != 2 || out.Untolerated != 1 {
		t.Fatalf("tolerated=%d detected=%d untolerated=%d, want 2/2/1", out.Tolerated, out.Detected, out.Untolerated)
	}
	if out.Periods != 40 {
		t.Fatalf("periods=%d, want 40", out.Periods)
	}
	if out.OK != 40-5 {
		t.Fatalf("ok=%d, want 35", out.OK)
	}
	if out.WorstWindow != 100*sim.Millisecond || len(out.Windows) != 1 {
		t.Fatalf("windows=%v worst=%v", out.Windows, out.WorstWindow)
	}
}

// Tolerated wins over detected: a bad period covered by both a
// within-budget arrival's recovery span and a degraded window counts
// against the classic guarantee, not the degradation ledger.
func TestClassifyToleratedPrecedence(t *testing.T) {
	const p = 25 * sim.Millisecond
	arrivals := []Arrival{{Fault: adversary.Fault{At: 400 * sim.Millisecond}, ActiveAtArrival: 1}}
	bad := []metrics.Interval{{Start: 425 * sim.Millisecond, End: 450 * sim.Millisecond}}
	degraded := []metrics.Interval{{Start: 400 * sim.Millisecond, End: 500 * sim.Millisecond}}
	rep := syntheticReport(p, 1000*sim.Millisecond, 50*sim.Millisecond, bad, degraded)
	out := Classify(rep, arrivals, 1, p, p)
	if out.Tolerated != 1 || out.Detected != 0 {
		t.Fatalf("tolerated=%d detected=%d, want 1/0", out.Tolerated, out.Detected)
	}
}

// An over-budget arrival's damage is not excused by the tolerated span
// of the classic guarantee — without a degraded window it is a silent
// miss.
func TestClassifyOverBudgetWithoutWindowIsUntolerated(t *testing.T) {
	const p = 25 * sim.Millisecond
	arrivals := []Arrival{{Fault: adversary.Fault{At: 400 * sim.Millisecond}, ActiveAtArrival: 2}}
	bad := []metrics.Interval{{Start: 425 * sim.Millisecond, End: 450 * sim.Millisecond}}
	rep := syntheticReport(p, 1000*sim.Millisecond, 50*sim.Millisecond, bad, nil)
	out := Classify(rep, arrivals, 1, p, p)
	if out.Untolerated != 1 || out.Tolerated != 0 || out.Detected != 0 {
		t.Fatalf("tolerated=%d detected=%d untolerated=%d, want 0/0/1", out.Tolerated, out.Detected, out.Untolerated)
	}
}

// TestScheduleExtendedCatalog pins the C10 draw rules: with Behaviors =
// ExtendedCatalog() every arrival uses an extended behavior, sink-bound
// behaviors target hosted sinks only, and skip-actuation never consumes
// fault budget (it cannot convict).
func TestScheduleExtendedCatalog(t *testing.T) {
	p := testParams(9)
	p.Behaviors = ExtendedCatalog()
	victims := testVictims(6)
	for i := range victims {
		victims[i].Sinks = []flow.TaskID{"t1"}
	}
	arr := Schedule(p, victims)
	if len(arr) == 0 {
		t.Fatal("schedule empty")
	}
	ext := map[string]bool{}
	for _, b := range ExtendedCatalog() {
		ext[b] = true
	}
	seen := map[string]bool{}
	for i, a := range arr {
		if !ext[a.Behavior] {
			t.Errorf("arrival %d: behavior %q not in the extended catalog", i, a.Behavior)
		}
		seen[a.Behavior] = true
		if beh, _ := adversary.Lookup(a.Behavior); beh.Scope == adversary.Sink && a.Task != "t1" {
			t.Errorf("arrival %d: sink-bound %s targets non-sink %q", i, a.Behavior, a.Task)
		}
		if a.Behavior == "skip-actuation" {
			// The episode itself must not enter the budget count.
			want := 0
			for j := 0; j < i; j++ {
				if beh, _ := adversary.Lookup(arr[j].Behavior); beh.Convicts && arr[j].At+arr[j].Heal+linger(p) > a.At {
					want++
				}
			}
			if a.ActiveAtArrival != want {
				t.Errorf("arrival %d: skip-actuation active=%d, convicting recount=%d", i, a.ActiveAtArrival, want)
			}
		}
	}
	for _, b := range ExtendedCatalog() {
		if !seen[b] {
			t.Errorf("λ=8 schedule never drew %q — test exercises too little", b)
		}
	}
}

// A sink-bound draw against a victim pool with no hosted sinks must be
// dropped, not panic or target a non-sink.
func TestScheduleSinklessVictimsDropSinkBoundDraws(t *testing.T) {
	p := testParams(9)
	p.Behaviors = []string{"corrupt-sink", "skip-actuation"}
	arr := Schedule(p, testVictims(4)) // no Sinks set
	if len(arr) != 0 {
		t.Fatalf("sink-bound draws against sinkless victims survived: %+v", arr)
	}
}

// TestClassifyWindowAtPeriodBoundary pins the open/close arithmetic with
// zero lead and grace: a degraded window covers bad periods from exactly
// its open instant through exactly its close instant (inclusive — the
// close stamps the reconcile verdict, so the period starting then is
// still flagged), and nothing either side.
func TestClassifyWindowAtPeriodBoundary(t *testing.T) {
	const p = 25 * sim.Millisecond
	degraded := []metrics.Interval{{Start: 400 * sim.Millisecond, End: 450 * sim.Millisecond}}
	bad := []metrics.Interval{
		{Start: 375 * sim.Millisecond, End: 400 * sim.Millisecond}, // period before open
		{Start: 400 * sim.Millisecond, End: 425 * sim.Millisecond}, // period at open
		{Start: 450 * sim.Millisecond, End: 475 * sim.Millisecond}, // period at close
		{Start: 475 * sim.Millisecond, End: 500 * sim.Millisecond}, // period after close
	}
	rep := syntheticReport(p, 1000*sim.Millisecond, 50*sim.Millisecond, bad, degraded)
	out := Classify(rep, nil, 1, 0, 0)
	if out.Detected != 2 || out.Untolerated != 2 || out.Tolerated != 0 {
		t.Fatalf("tolerated=%d detected=%d untolerated=%d, want 0/2/2",
			out.Tolerated, out.Detected, out.Untolerated)
	}
	// The lead/grace extension moves both boundaries by exactly one period.
	out = Classify(rep, nil, 1, p, p)
	if out.Detected != 4 || out.Untolerated != 0 {
		t.Fatalf("lead=grace=period: detected=%d untolerated=%d, want 4/0", out.Detected, out.Untolerated)
	}
}

// TestClassifyZeroDwellArrival: the tolerated span is set by the arrival
// alone — an episode with no heal delay still opens the full span
// [At, At+R+P] — and the span's end
// is inclusive, closing exactly one period later than R.
func TestClassifyZeroDwellArrival(t *testing.T) {
	const p = 25 * sim.Millisecond
	arrivals := []Arrival{{Fault: adversary.Fault{At: 400 * sim.Millisecond}, ActiveAtArrival: 1}}
	bad := []metrics.Interval{
		{Start: 400 * sim.Millisecond, End: 425 * sim.Millisecond}, // at the arrival instant
		{Start: 475 * sim.Millisecond, End: 500 * sim.Millisecond}, // at At+R+P exactly
		{Start: 500 * sim.Millisecond, End: 525 * sim.Millisecond}, // one period past the span
	}
	rep := syntheticReport(p, 1000*sim.Millisecond, 50*sim.Millisecond, bad, nil)
	out := Classify(rep, arrivals, 1, 0, 0)
	if out.Tolerated != 2 || out.Untolerated != 1 {
		t.Fatalf("tolerated=%d untolerated=%d, want 2/1", out.Tolerated, out.Untolerated)
	}
}

// TestClassifyOverlappingDegradedWindows: overlapping windows (two
// reporters degraded at once) merge for coverage — a bad period in the
// overlap counts once — while Windows and WorstWindow keep the raw
// per-window spans.
func TestClassifyOverlappingDegradedWindows(t *testing.T) {
	const p = 25 * sim.Millisecond
	degraded := []metrics.Interval{
		{Start: 400 * sim.Millisecond, End: 500 * sim.Millisecond},
		{Start: 450 * sim.Millisecond, End: 600 * sim.Millisecond},
	}
	bad := []metrics.Interval{
		{Start: 450 * sim.Millisecond, End: 500 * sim.Millisecond}, // inside the overlap
		{Start: 575 * sim.Millisecond, End: 600 * sim.Millisecond}, // inside the second window only
	}
	rep := syntheticReport(p, 1000*sim.Millisecond, 50*sim.Millisecond, bad, degraded)
	out := Classify(rep, nil, 1, 0, 0)
	if out.Detected != 3 || out.Untolerated != 0 {
		t.Fatalf("detected=%d untolerated=%d, want 3/0", out.Detected, out.Untolerated)
	}
	if len(out.Windows) != 2 {
		t.Fatalf("windows=%v, want the 2 raw spans", out.Windows)
	}
	if out.WorstWindow != 150*sim.Millisecond {
		t.Fatalf("worst=%v, want 150ms (the longer raw window, not the merged span)", out.WorstWindow)
	}
}

func TestCovered(t *testing.T) {
	ivs := []metrics.Interval{{Start: 10, End: 20}, {Start: 40, End: 50}}
	for _, c := range []struct {
		t    sim.Time
		want bool
	}{{5, false}, {10, true}, {20, true}, {25, false}, {45, true}, {55, false}} {
		if got := covered(ivs, c.t); got != c.want {
			t.Errorf("covered(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}
