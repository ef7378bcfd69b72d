// Package plant models the physical side of a cyber-physical system: the
// paper's core argument is that plants have inertia ("the flight control
// system … can typically operate within a relatively large flight
// envelope"), so a bounded period R of wrong or missing control commands
// is harmless, while an unbounded outage causes physical damage. The
// package provides three plants with tunable damage deadlines, plus the
// deterministic controller functions that run as BTR tasks (pure
// functions of the sensor sample, so commission faults on controllers
// remain provable by re-execution).
package plant

import (
	"encoding/binary"
	"math"

	"btr/internal/sim"
)

// Plant is a discrete-time physical system under control.
type Plant interface {
	// Step advances the physics by dt under actuation u.
	Step(u float64, dt sim.Time)
	// Sense returns the current sensor reading.
	Sense() float64
	// InEnvelope reports whether the state is inside the safe envelope.
	InEnvelope() bool
	// DamageDeadline estimates how long the plant tolerates a frozen or
	// adversarial actuation before leaving the envelope (the paper's D).
	DamageDeadline() sim.Time
}

// EncodeFloat serializes a float64 for dataflow values (little-endian
// IEEE-754 bits; deterministic and exact).
func EncodeFloat(v float64) []byte { return AppendFloat(nil, v) }

// AppendFloat appends EncodeFloat(v) to dst.
func AppendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// DecodeFloat reverses EncodeFloat (0 for malformed input).
func DecodeFloat(b []byte) float64 {
	if len(b) != 8 {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// --- Water tank -------------------------------------------------------------

// WaterTank models the paper's §2 motivating example: "when a sensor
// indicates a pressure increase in some part of the system, the system may
// need to respond within seconds — e.g., by opening a safety valve — to
// prevent an explosion."
//
// Pressure rises at InflowRate and is relieved proportionally to the valve
// command u ∈ [0,1]:
//
//	dP/dt = InflowRate - OutflowRate·u
//
// The controller holds pressure near Setpoint; the envelope is
// [0, MaxPressure]. With the valve stuck shut, pressure climbs at
// InflowRate, so D ≈ (MaxPressure - Setpoint) / InflowRate.
type WaterTank struct {
	Pressure    float64 // current pressure (bar)
	InflowRate  float64 // bar per second
	OutflowRate float64 // bar per second at u=1
	Setpoint    float64
	MaxPressure float64
}

// NewWaterTank returns a tank whose pressure sits at the setpoint with a
// damage deadline of roughly five seconds — the five-second rule made
// physical.
func NewWaterTank() *WaterTank {
	return &WaterTank{
		Pressure:    5.0,
		InflowRate:  1.0, // +1 bar/s uncontrolled
		OutflowRate: 2.5,
		Setpoint:    5.0,
		MaxPressure: 10.0, // 5 bar of headroom / 1 bar/s = 5 s
	}
}

// Step integrates the pressure dynamics.
func (w *WaterTank) Step(u float64, dt sim.Time) {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	w.Pressure += (w.InflowRate - w.OutflowRate*u) * dt.Seconds()
	if w.Pressure < 0 {
		w.Pressure = 0
	}
}

// Sense returns the pressure.
func (w *WaterTank) Sense() float64 { return w.Pressure }

// InEnvelope reports pressure within [0, MaxPressure].
func (w *WaterTank) InEnvelope() bool { return w.Pressure <= w.MaxPressure }

// DamageDeadline is headroom divided by the uncontrolled rise rate.
func (w *WaterTank) DamageDeadline() sim.Time {
	return sim.FromSeconds((w.MaxPressure - w.Setpoint) / w.InflowRate)
}

// Control computes the proportional valve command holding the setpoint.
// Exported as a pure function so BTR can re-execute it for audit.
func (w *WaterTank) Control(pressure float64) float64 {
	// Feedforward holds the inflow; proportional action corrects error.
	u := w.InflowRate/w.OutflowRate + 0.8*(pressure-w.Setpoint)
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return u
}

// --- Inverted pendulum -------------------------------------------------------

// InvertedPendulum is the classic unstable plant: without control the
// angle diverges exponentially, so its damage deadline is short — a
// demanding case for BTR's recovery bound.
//
//	θ'' = (g/L)·sin(θ) - damping·θ' + u
type InvertedPendulum struct {
	Theta, Omega float64 // angle (rad) and angular velocity
	GravOverLen  float64
	Damping      float64
	MaxAngle     float64 // envelope bound (rad)
	substep      sim.Time
}

// NewInvertedPendulum starts slightly off-vertical.
func NewInvertedPendulum() *InvertedPendulum {
	return &InvertedPendulum{
		Theta:       0.02,
		GravOverLen: 9.8, // g/L for L=1m
		Damping:     0.3,
		MaxAngle:    0.5, // ~28.6 degrees
		substep:     sim.Millisecond,
	}
}

// Step integrates with fixed millisecond substeps (deterministic;
// explicit Euler is adequate at this resolution for the angles involved).
func (ip *InvertedPendulum) Step(u float64, dt sim.Time) {
	for elapsed := sim.Time(0); elapsed < dt; elapsed += ip.substep {
		h := ip.substep
		if dt-elapsed < h {
			h = dt - elapsed
		}
		hs := h.Seconds()
		acc := ip.GravOverLen*math.Sin(ip.Theta) - ip.Damping*ip.Omega + u
		ip.Theta += ip.Omega * hs
		ip.Omega += acc * hs
	}
}

// Sense returns the angle.
func (ip *InvertedPendulum) Sense() float64 { return ip.Theta }

// InEnvelope reports |θ| within the safe cone.
func (ip *InvertedPendulum) InEnvelope() bool { return math.Abs(ip.Theta) <= ip.MaxAngle }

// DamageDeadline estimates the time for the angle to grow from the
// setpoint offset to the envelope edge under zero control (linearized
// doubling time of the unstable mode).
func (ip *InvertedPendulum) DamageDeadline() sim.Time {
	lambda := math.Sqrt(ip.GravOverLen) // unstable eigenvalue ≈ √(g/L)
	start := math.Max(math.Abs(ip.Theta), 0.01)
	t := math.Log(ip.MaxAngle/start) / lambda
	return sim.FromSeconds(t)
}

// Control is the stabilizing proportional law (a pure function of the
// sampled angle; the closed loop relies on the plant's physical damping
// for its derivative term, keeping the controller stateless and therefore
// re-executable for audit).
func (ip *InvertedPendulum) Control(theta float64) float64 {
	return -30 * theta
}

// --- Aircraft pitch hold ------------------------------------------------------

// PitchHold models the paper's airplane example: a slow, stable-ish
// second-order pitch axis with a persistent disturbance (trim offset,
// turbulence bias). Lots of inertia — the flight envelope tolerates many
// seconds of outage, unlike the pendulum.
//
//	q' = -a·q + b·δ + d
//	θ' = q
type PitchHold struct {
	ThetaRad, Q float64 // pitch angle and rate
	A, B        float64 // dynamics coefficients
	Disturb     float64 // constant disturbance (rad/s²)
	MaxPitch    float64 // envelope half-width (rad)
}

// NewPitchHold returns a pitch axis trimmed at zero with a gentle nose-up
// disturbance.
func NewPitchHold() *PitchHold {
	return &PitchHold{
		A: 0.8, B: 2.0,
		Disturb:  0.02,
		MaxPitch: 0.35, // ~20 degrees
	}
}

// Step integrates the linear dynamics.
func (ph *PitchHold) Step(u float64, dt sim.Time) {
	s := dt.Seconds()
	// Sub-step for accuracy over long periods.
	const sub = 0.001
	for remaining := s; remaining > 1e-12; remaining -= sub {
		h := math.Min(sub, remaining)
		qdot := -ph.A*ph.Q + ph.B*u + ph.Disturb
		ph.ThetaRad += ph.Q * h
		ph.Q += qdot * h
	}
}

// Sense returns the pitch angle.
func (ph *PitchHold) Sense() float64 { return ph.ThetaRad }

// InEnvelope reports pitch within the flight envelope.
func (ph *PitchHold) InEnvelope() bool { return math.Abs(ph.ThetaRad) <= ph.MaxPitch }

// DamageDeadline estimates time to exit the envelope under frozen
// controls: the disturbance accelerates pitch toward the limit.
func (ph *PitchHold) DamageDeadline() sim.Time {
	// q settles to Disturb/A; pitch then ramps at that rate.
	rate := ph.Disturb / ph.A
	return sim.FromSeconds(ph.MaxPitch / rate)
}

// Control is the PD pitch-hold law.
func (ph *PitchHold) Control(theta float64) float64 {
	return (-2.0*theta - ph.Disturb/ph.B)
}
