package plant

import (
	"math"
	"sort"
	"testing"

	"btr/internal/evidence"
	"btr/internal/sim"
)

func TestEncodeDecodeFloat(t *testing.T) {
	for _, v := range []float64{0, 1.5, -273.15, math.Pi, math.MaxFloat64} {
		if got := DecodeFloat(EncodeFloat(v)); got != v {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
	if DecodeFloat([]byte{1, 2}) != 0 {
		t.Error("malformed decode should be 0")
	}
}

// simulateControlled runs a plant closed-loop at the given period.
func simulateControlled(p Plant, ctrl func(float64) float64, period sim.Time, seconds float64) bool {
	steps := int(seconds / period.Seconds())
	for i := 0; i < steps; i++ {
		u := ctrl(p.Sense())
		p.Step(u, period)
		if !p.InEnvelope() {
			return false
		}
	}
	return true
}

// timeToViolation runs a plant with frozen (or zero) actuation until it
// leaves the envelope.
func timeToViolation(p Plant, u float64, period sim.Time, maxSeconds float64) sim.Time {
	steps := int(maxSeconds / period.Seconds())
	for i := 0; i < steps; i++ {
		p.Step(u, period)
		if !p.InEnvelope() {
			return sim.Time(i+1) * period
		}
	}
	return sim.Never
}

func TestWaterTankControlledStable(t *testing.T) {
	w := NewWaterTank()
	if !simulateControlled(w, w.Control, 50*sim.Millisecond, 60) {
		t.Fatal("controlled tank left the envelope")
	}
	if math.Abs(w.Pressure-w.Setpoint) > 0.5 {
		t.Errorf("pressure %v far from setpoint %v", w.Pressure, w.Setpoint)
	}
}

func TestWaterTankUncontrolledDamageNearD(t *testing.T) {
	w := NewWaterTank()
	d := w.DamageDeadline()
	got := timeToViolation(w, 0, 50*sim.Millisecond, 30)
	if got == sim.Never {
		t.Fatal("valve stuck shut never caused damage")
	}
	// Within 10% of the analytic deadline.
	lo, hi := d*9/10, d*11/10
	if got < lo || got > hi {
		t.Errorf("violation at %v, analytic D = %v", got, d)
	}
}

func TestWaterTankFiveSecondRule(t *testing.T) {
	// The headline: a 4-second outage is survivable, a 6-second one is
	// not (D = 5s for the default tank).
	survive := func(outage float64) bool {
		w := NewWaterTank()
		period := 50 * sim.Millisecond
		// 10s of good control, then `outage` seconds of valve-shut, then
		// good control again.
		for i := 0; i < int(10/period.Seconds()); i++ {
			w.Step(w.Control(w.Sense()), period)
		}
		for i := 0; i < int(outage/period.Seconds()); i++ {
			w.Step(0, period)
			if !w.InEnvelope() {
				return false
			}
		}
		for i := 0; i < int(10/period.Seconds()); i++ {
			w.Step(w.Control(w.Sense()), period)
			if !w.InEnvelope() {
				return false
			}
		}
		return true
	}
	if !survive(4.0) {
		t.Error("4s outage should be survivable (D=5s)")
	}
	if survive(6.0) {
		t.Error("6s outage should cause damage (D=5s)")
	}
}

func TestPendulumControlledStable(t *testing.T) {
	ip := NewInvertedPendulum()
	if !simulateControlled(ip, ip.Control, 20*sim.Millisecond, 30) {
		t.Fatal("controlled pendulum fell")
	}
	if math.Abs(ip.Theta) > 0.1 {
		t.Errorf("pendulum angle %v not regulated", ip.Theta)
	}
}

func TestPendulumUncontrolledFalls(t *testing.T) {
	ip := NewInvertedPendulum()
	got := timeToViolation(ip, 0, 20*sim.Millisecond, 30)
	if got == sim.Never {
		t.Fatal("uncontrolled inverted pendulum never fell")
	}
	// The pendulum's deadline is much shorter than the tank's.
	if got > 3*sim.Second {
		t.Errorf("pendulum survived %v uncontrolled; expected < 3s", got)
	}
}

func TestPitchHoldControlledStable(t *testing.T) {
	ph := NewPitchHold()
	if !simulateControlled(ph, ph.Control, 25*sim.Millisecond, 60) {
		t.Fatal("controlled pitch left envelope")
	}
	if math.Abs(ph.ThetaRad) > 0.05 {
		t.Errorf("pitch %v not held", ph.ThetaRad)
	}
}

func TestPitchHoldSlowDrift(t *testing.T) {
	// The aircraft has far more inertia than the pendulum: its damage
	// deadline is long.
	ph := NewPitchHold()
	got := timeToViolation(ph, 0, 25*sim.Millisecond, 120)
	if got == sim.Never {
		t.Fatal("disturbed pitch never left the envelope")
	}
	if got < 5*sim.Second {
		t.Errorf("pitch left envelope after only %v; expected slow drift", got)
	}
}

func TestDamageDeadlinesOrdering(t *testing.T) {
	// Pendulum (unstable) < tank (5s rule) < aircraft (inertia).
	p := NewInvertedPendulum().DamageDeadline()
	w := NewWaterTank().DamageDeadline()
	a := NewPitchHold().DamageDeadline()
	if !(p < w && w < a) {
		t.Errorf("deadline ordering wrong: pendulum %v, tank %v, aircraft %v", p, w, a)
	}
}

func TestPlantDeterminism(t *testing.T) {
	run := func() float64 {
		ip := NewInvertedPendulum()
		for i := 0; i < 500; i++ {
			ip.Step(ip.Control(ip.Sense()), 20*sim.Millisecond)
		}
		return ip.Theta
	}
	if run() != run() {
		t.Error("plant integration not deterministic")
	}
}

// fakeKernel implements the loop's kernel interface for isolated tests.
type fakeKernel struct {
	now    sim.Time
	events []struct {
		at sim.Time
		fn func()
	}
}

func (f *fakeKernel) At(t sim.Time, fn func()) sim.Handle {
	f.events = append(f.events, struct {
		at sim.Time
		fn func()
	}{t, fn})
	return sim.Handle(len(f.events))
}
func (f *fakeKernel) Now() sim.Time { return f.now }

func (f *fakeKernel) runAll() {
	// Stable sort by time so interleaved schedules run in order.
	sort.SliceStable(f.events, func(i, j int) bool { return f.events[i].at < f.events[j].at })
	for i := 0; i < len(f.events); i++ {
		f.now = f.events[i].at
		f.events[i].fn()
	}
}

func TestLoopSampleAndHold(t *testing.T) {
	w := NewWaterTank()
	l := NewLoop(w, 50*sim.Millisecond, 10)
	// Period 0 sample is the initial state for every replica.
	v := l.Source(nil, "sensor", 0)
	if DecodeFloat(v) != 5.0 {
		t.Errorf("sample = %v, want 5.0", DecodeFloat(v))
	}
	if string(l.Source(nil, "sensor", 0)) != string(v) {
		t.Error("sample-and-hold violated")
	}
}

func TestLoopComputeSemantics(t *testing.T) {
	w := NewWaterTank()
	l := NewLoop(w, 50*sim.Millisecond, 10)
	sensorRec := evidence.Record{Logical: "sensor", Value: EncodeFloat(7.5)}
	u := l.Compute(nil, "controller", 0, []evidence.Record{sensorRec})
	if DecodeFloat(u) != w.Control(7.5) {
		t.Errorf("controller output %v, want %v", DecodeFloat(u), w.Control(7.5))
	}
	act := l.Compute(nil, "actuator", 0, []evidence.Record{{Logical: "controller", Value: u}})
	if string(act) != string(u) {
		t.Error("actuator is not the identity")
	}
}

func TestLoopOracleMatchesCompute(t *testing.T) {
	w := NewWaterTank()
	l := NewLoop(w, 50*sim.Millisecond, 10)
	sensor := l.Source(nil, "sensor", 0)
	u := l.Compute(nil, "controller", 0, []evidence.Record{{Logical: "sensor", Value: sensor}})
	act := l.Compute(nil, "actuator", 0, []evidence.Record{{Logical: "controller", Value: u}})
	if string(l.Oracle("actuator", 0)) != string(act) {
		t.Error("oracle disagrees with the computed pipeline")
	}
}

func TestLoopAppliesFirstCommandOnly(t *testing.T) {
	w := NewWaterTank()
	l := NewLoop(w, 50*sim.Millisecond, 10)
	l.Apply(0, EncodeFloat(0.9))
	l.Apply(0, EncodeFloat(0.1)) // ignored
	if !l.uSet[0] || l.u[0] != 0.9 {
		t.Errorf("first-command semantics broken: %v", l.u[0])
	}
}

func TestLoopPhysicsAdvance(t *testing.T) {
	w := NewWaterTank()
	l := NewLoop(w, 50*sim.Millisecond, 20)
	k := &fakeKernel{}
	l.Install(k)
	// Apply the correct command every period, mid-period (after that
	// period's sample exists): pressure stays put.
	for p := uint64(0); p < 20; p++ {
		p := p
		k.At(sim.Time(p)*l.Period+sim.Millisecond, func() {
			l.Apply(p, EncodeFloat(w.Control(l.samples[p])))
		})
	}
	k.runAll()
	if l.Violations != 0 {
		t.Errorf("violations = %d with perfect control", l.Violations)
	}
	if math.Abs(w.Pressure-w.Setpoint) > 0.2 {
		t.Errorf("pressure drifted to %v", w.Pressure)
	}
}

func TestLoopHoldsLastCommandOnOmission(t *testing.T) {
	w := NewWaterTank()
	l := NewLoop(w, 50*sim.Millisecond, 20)
	k := &fakeKernel{}
	l.Install(k)
	// No commands at all: the actuator holds the initial trim, which for
	// the tank equals the equilibrium command — pressure stays flat.
	k.runAll()
	if math.Abs(w.Pressure-5.0) > 0.3 {
		t.Errorf("held trim should hold pressure; got %v", w.Pressure)
	}
}

func TestLoopViolationDetection(t *testing.T) {
	w := NewWaterTank()
	l := NewLoop(w, 50*sim.Millisecond, 200) // 10 seconds
	k := &fakeKernel{}
	l.Install(k)
	// Adversarial commands: valve shut the whole run.
	for p := uint64(0); p < 200; p++ {
		l.Apply(p, EncodeFloat(0))
	}
	k.runAll()
	if l.Violations == 0 {
		t.Fatal("no violations despite valve-shut attack")
	}
	if l.FirstViolation == sim.Never || l.FirstViolation > 6*sim.Second {
		t.Errorf("first violation at %v, want ~5s", l.FirstViolation)
	}
}
