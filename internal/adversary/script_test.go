package adversary

import (
	"slices"
	"strings"
	"testing"

	"btr/internal/core"
	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sim"
)

const testPeriod = 25 * sim.Millisecond

var stormKinds = Names(func(b Behavior) bool { return b.Scope == Process })

func TestParseScript(t *testing.T) {
	const p = testPeriod
	got, err := ParseScript("kill-restart@3+2,partition@5", p, stormKinds)
	if err != nil {
		t.Fatalf("valid script rejected: %v", err)
	}
	want := Script{
		{Behavior: "kill-restart", Node: -1, At: 3 * p, Heal: 2 * p},
		{Behavior: "partition", Node: -1, At: 5 * p, Heal: 3 * p}, // heal-less: 3 periods
	}
	if !slices.Equal(got, want) {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
	// An unknown kind errors through cliflag, naming the flag and listing
	// every valid choice.
	_, err = ParseScript("stopp@3", p, stormKinds)
	if err == nil {
		t.Fatal("unknown kind silently accepted")
	}
	for _, want := range append([]string{"-faults", `"stopp"`, "valid:"}, stormKinds...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	for name, spec := range map[string]string{
		"missing @":           "stop",
		"bad period":          "stop@x",
		"period out of range": "stop@4294967296",
		"bad heal":            "stop@3+x",
		"kind outside kinds":  "corrupt-all@3",
		"empty tail entry":    "stop@3,",
		"empty script":        "",
	} {
		if _, err := ParseScript(spec, p, stormKinds); err == nil {
			t.Errorf("%s (%q) silently accepted", name, spec)
		}
	}
}

// FuzzScriptParse: ParseScript never panics, and every script it accepts
// formats back to text that parses to the same script.
func FuzzScriptParse(f *testing.F) {
	for _, seed := range []string{
		"kill-restart@3+3,partition@5+3", "stop@0", "kill@7+0", "corrupt-all@2+1",
		"stop@3,", "@", "stop@+", "partition@4294967295+4294967295", "crash@03+007",
	} {
		f.Add(seed)
	}
	kinds := Names(nil)
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseScript(spec, testPeriod, kinds)
		if err != nil {
			return
		}
		parts := make([]string, len(s))
		for i, e := range s {
			parts[i] = e.Format(testPeriod)
		}
		again, err := ParseScript(strings.Join(parts, ","), testPeriod, kinds)
		if err != nil || !slices.Equal(s, again) {
			t.Fatalf("%q parsed to %+v, formatted to %q, re-parsed to %+v (%v)", spec, s, strings.Join(parts, ","), again, err)
		}
	})
}

func TestResolveAssignsAutoVictims(t *testing.T) {
	stop := func(node network.NodeID) Fault { return Fault{Behavior: "stop", Node: node} }
	got, err := Script{stop(-1), stop(0), stop(-1), stop(-1)}.Resolve(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The strategy victim first, then the lowest untargeted slots.
	if want := (Script{stop(2), stop(0), stop(1), stop(3)}); !slices.Equal(got, want) {
		t.Errorf("resolved %+v, want %+v", got, want)
	}
	for name, s := range map[string]Script{
		"unknown behavior":        {{Behavior: "meltdown", Node: -1}},
		"victim out of range":     {stop(4)},
		"victim twice":            {stop(1), stop(1)},
		"more entries than nodes": {stop(-1), stop(-1), stop(-1), stop(-1), stop(-1)},
	} {
		if _, err := s.Resolve(4, 2); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestInstallRejectsUnknownBehavior(t *testing.T) {
	for name, f := range map[string]Fault{
		"unknown behavior":  {Behavior: "meltdown", Node: 0},
		"process scope":     {Behavior: "kill", Node: 0},
		"unresolved victim": {Behavior: "crash", Node: -1},
	} {
		if err := (Script{f}).Install(nil, testPeriod); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestInstallRepairsAtHeal runs one corrupt-task and one crash entry on
// the kernel. The plan covers f=0, so no mode switch ends the bad output:
// only the repair does. An entry with Heal > 0 is repaired at At+Heal —
// the hook cleared, or the node restarted — and the sink is correct again
// within two periods; an entry with Heal == 0 stays bad to the horizon.
// Either way the report records exactly the injection instant.
func TestInstallRepairsAtHeal(t *testing.T) {
	const p = testPeriod
	for _, behavior := range []string{"corrupt-task", "crash"} {
		for _, heal := range []sim.Time{0, 5 * p} {
			s, err := core.NewSystem(core.Config{
				Seed:     1,
				Workload: flow.Chain(3, p, sim.Millisecond, 64, flow.CritA),
				Topology: network.FullMesh(6, 20_000_000, 50*sim.Microsecond),
				PlanOpts: plan.DefaultOptions(0, 500*sim.Millisecond),
				Horizon:  30,
			})
			if err != nil {
				t.Fatal(err)
			}
			sink := s.Cfg.Workload.Sinks()[0]
			f := Fault{Behavior: behavior, Node: s.Strategy.Plans[""].FirstSinkHost(sink), Task: sink, At: 3 * p, Heal: heal}
			if err := (Script{f}).Install(s, p); err != nil {
				t.Fatal(err)
			}
			rep := s.Run()
			if !slices.Equal(rep.FaultTimes, []sim.Time{f.At}) {
				t.Errorf("%s heal %v: fault times %v, want [%v]", behavior, heal, rep.FaultTimes, f.At)
			}
			bad := rep.BadIntervals()
			if len(bad) != 1 || bad[0].Start <= f.At {
				t.Fatalf("%s heal %v: bad intervals %v, want one after %v", behavior, heal, bad, f.At)
			}
			end := bad[0].End
			switch {
			case heal == 0 && end != rep.Horizon:
				t.Errorf("%s never repaired: bad output ends at %v, before the horizon %v", behavior, end, rep.Horizon)
			case heal > 0 && (end <= f.At+heal || end > f.At+heal+2*p):
				t.Errorf("%s repaired at %v: bad output ends at %v", behavior, f.At+heal, end)
			}
		}
	}
}
