// Package prof wires the standard -cpuprofile/-memprofile flags into the
// BTR command-line tools (cmd/btrcampaign, cmd/btrlive), so perf work
// can profile the parallel campaign path directly:
//
//	btrcampaign -workers 4 -cpuprofile cpu.pprof -memprofile mem.pprof
//	go tool pprof cpu.pprof
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the registered profiling flag values.
type Flags struct {
	cpu, mem *string
}

// RegisterOn adds -cpuprofile and -memprofile to a flag set. Call before
// parsing it.
func RegisterOn(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile of the run to `file`"),
		mem: fs.String("memprofile", "", "write a heap profile at exit to `file`"),
	}
}

// Start begins CPU profiling if -cpuprofile was given. The returned stop
// function ends the CPU profile and writes the heap profile (if
// -memprofile was given); it is idempotent, so callers can both defer it
// and invoke it explicitly before os.Exit.
func (f *Flags) Start() (stop func(), err error) {
	var cpuFile *os.File
	if *f.cpu != "" {
		cpuFile, err = os.Create(*f.cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if *f.mem != "" {
			mf, err := os.Create(*f.mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "prof: %v\n", err)
				return
			}
			runtime.GC() // materialize live-set accounting before the snapshot
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintf(os.Stderr, "prof: write heap profile: %v\n", err)
			}
			mf.Close()
		}
	}, nil
}
