package network

import "btr/internal/sim"

// Bus is the simulated Network under another name, kept only for the
// benchmark's network.bus_* probes; it goes with them in the benchmark
// change that retires those probes (ROADMAP item 1).
type Bus struct{ *Network }

// NewBus returns a Network over topo driven by sched.
func NewBus(sched sim.Scheduler, topo *Topology, cfg Config) *Bus { return &Bus{New(sched, topo, cfg)} }

// Close does nothing: a Network owns no goroutines.
func (*Bus) Close() {}
