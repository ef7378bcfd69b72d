package plant

import (
	"fmt"

	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/sim"
)

// Loop binds a Plant to the flow.ControlLoop workload (sensor ->
// controller -> actuator): it samples the plant at period boundaries
// (sample-and-hold, so every sensor replica reads the same value), applies
// the first actuation command per period, and exposes the deterministic
// task functions and oracle the BTR runtime needs.
type Loop struct {
	P       Plant
	Period  sim.Time
	Horizon uint64
	ctrl    func(float64) float64

	samples []float64
	uSet    []bool
	u       []float64
	holdU   float64 // actuator holds its last command when none arrives

	// Violations counts period boundaries at which the plant was outside
	// its envelope; FirstViolation is the earliest such time (Never if
	// none).
	Violations     int
	FirstViolation sim.Time
}

// controller describes plants whose control law is a pure function.
type controller interface {
	Control(sensed float64) float64
}

// NewLoop wraps the plant for a run of horizon periods. The plant must
// expose a Control method (all plants in this package do).
func NewLoop(p Plant, period sim.Time, horizon uint64) *Loop {
	c, ok := p.(controller)
	if !ok {
		panic("plant: plant has no Control method")
	}
	l := &Loop{
		P: p, Period: period, Horizon: horizon,
		ctrl:           c.Control,
		samples:        make([]float64, horizon+2),
		uSet:           make([]bool, horizon+2),
		u:              make([]float64, horizon+2),
		FirstViolation: sim.Never,
	}
	l.samples[0] = p.Sense()
	l.holdU = l.ctrl(l.samples[0]) // trim the actuator at the initial law
	return l
}

// kernel is the subset of sim.Scheduler the loop needs (keeps the package
// decoupled and trivially testable); any Scheduler — discrete-event or
// wall-clock — satisfies it.
type kernel interface {
	At(t sim.Time, fn func()) sim.Handle
	Now() sim.Time
}

// Install schedules the physics boundary steps. Call before starting the
// runtime so boundary events precede same-instant task events.
func (l *Loop) Install(k kernel) {
	for p := uint64(0); p < l.Horizon+1; p++ {
		p := p
		k.At(sim.Time(p+1)*l.Period, func() {
			u := l.holdU
			if l.uSet[p] {
				u = l.u[p]
				l.holdU = u
			}
			l.P.Step(u, l.Period)
			l.samples[p+1] = l.P.Sense()
			if !l.P.InEnvelope() {
				l.Violations++
				if l.FirstViolation == sim.Never {
					l.FirstViolation = k.Now()
				}
			}
		})
	}
}

// Apply records an actuation command; the first one per period wins (BTR
// actuator semantics). Use as (or from) the system's OnActuation hook.
func (l *Loop) Apply(period uint64, value []byte) {
	if period >= uint64(len(l.u)) || l.uSet[period] {
		return
	}
	l.uSet[period] = true
	l.u[period] = DecodeFloat(value)
}

// Source is the runtime.SourceFunc: every sensor replica reads the
// period's sample-and-hold value.
func (l *Loop) Source(task flow.TaskID, period uint64) []byte {
	if period >= uint64(len(l.samples)) {
		return EncodeFloat(0)
	}
	return EncodeFloat(l.samples[period])
}

// Compute is the runtime.TaskFunc for the control-loop tasks: the
// controller applies the plant's pure control law to the sensor sample;
// the actuator forwards the controller output. Any other task falls back
// to the canonical hash semantics. The value is appended to dst.
func (l *Loop) Compute(dst []byte, task flow.TaskID, period uint64, inputs []evidence.Record) []byte {
	switch task {
	case "controller":
		return AppendFloat(dst, l.ctrl(DecodeFloat(valueOf(inputs, "sensor"))))
	case "actuator":
		return append(dst, valueOf(inputs, "controller")...)
	default:
		return evidence.AppendHashCompute(dst, task, period, inputs)
	}
}

// Oracle returns the expected actuator command for the period: the pure
// control law applied to the actual sample. This is functional correctness
// given the real physical trajectory — after recovery, commands must again
// be the correct function of current sensor readings.
func (l *Loop) Oracle(sink flow.TaskID, period uint64) []byte {
	if sink != "actuator" {
		panic(fmt.Sprintf("plant: oracle asked about unknown sink %q", sink))
	}
	if period >= uint64(len(l.samples)) {
		return EncodeFloat(0)
	}
	return EncodeFloat(l.ctrl(l.samples[period]))
}

// valueOf picks the value of the first input with the given logical task.
func valueOf(inputs []evidence.Record, logical flow.TaskID) []byte {
	for _, in := range inputs {
		if in.Logical == logical {
			return in.Value
		}
	}
	return nil
}
