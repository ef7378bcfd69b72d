package main

// Example runs the program and pins its output: the simulated run is
// deterministic, so any change to what it prints is a behavior change.
func Example() {
	main()
	// Output:
	// strategy has 7 plans; provable recovery bound R = 102.964ms
	// scheduled crash of node 3 at 125.000ms
	//
	// actuations: 80, wrong: 0, missed: 0
	// evidence raised: map[path-accusation:10]
	// mode switches: 5 (all correct nodes converge on plan {3})
	// measured recovery: 0us (bound 102.964ms)
	//
	// ✓ the crash never disturbed the actuator: detection-based
	//   replication (f+1) reconfigured around the fault in bounded time
}
