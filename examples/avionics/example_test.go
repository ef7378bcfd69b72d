package main

// Example runs the program and pins its output: the simulated run is
// deterministic, so any change to what it prints is a behavior change.
func Example() {
	main()
	// Output:
	// mode ladder (what each fault pattern costs):
	//   0 fault(s): shed [cabin]
	//   1 fault(s): shed [cabin]
	//   2 fault(s): shed [cabin display valve]
	//
	// evidence: map[wrong-output:22 path-accusation:597], switches: 13
	//
	// per-sink outcome:
	//   cabin      (crit D): incorrect/shed for 1.475s of 1.500s
	//   display    (crit C): incorrect/shed for 725.000ms of 1.500s
	//   elevator   (crit A): incorrect/shed for 25.000ms of 1.500s
	//   valve      (crit B): incorrect/shed for 707.500ms of 1.500s
	//
	// flight control (A) recovery: 40.000ms (bound 107.320ms)
}
