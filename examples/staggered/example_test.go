package main

// Example runs the program and pins its output: the simulated run is
// deterministic, so any change to what it prints is a behavior change.
func Example() {
	main()
	// Output:
	// k=1 staggered faults: 0us of bad output (k·R envelope 103.028ms) — within: true
	// k=2 staggered faults: 25.000ms of bad output (k·R envelope 206.056ms) — within: true
	// k=3 staggered faults: 50.000ms of bad output (k·R envelope 309.084ms) — within: true
	//
	// the outage grows with k, which is why the planner budgets R := D/f
}
