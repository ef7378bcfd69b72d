package main

// Example runs the program and pins its output: the simulated run is
// deterministic, so any change to what it prints is a behavior change.
func Example() {
	main()
	// Output:
	// damage deadline D = 5.000s (pressure headroom / uncontrolled rise)
	// BTR recovery bound R = 202.964ms
	//
	// attack: node 0 forces the valve shut at t=5s
	//
	// wrong valve commands reaching the plant: 1 period(s)
	// measured recovery: 75.000ms
	// peak pressure: 5.00 bar (envelope limit 10.0)
	// envelope violations: 0
	//
	// ✓ the five-second rule held: R << D, so the physics absorbed the attack
}
