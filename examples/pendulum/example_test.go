package main

// Example runs the program and pins its output: the simulated run is
// deterministic, so any change to what it prints is a behavior change.
func Example() {
	main()
	// Output:
	// pendulum damage deadline D ≈ 1.028s (linearized, conservative)
	// BTR recovery bound R = 82.964ms — R < D: true
	//
	// attack: node 0 corrupts the torque command at t=2s
	// measured recovery: 30.000ms; wrong commands reaching the motor: 1
	// max |angle| stayed in envelope: violations = 0
	//
	// counterfactual outage of 2×D without BTR: pendulum fell = true
	//
	// ✓ bounded recovery is the difference between a wobble and the floor
}
