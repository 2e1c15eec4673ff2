package runner

import (
	"errors"
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles is the -cpuprofile / -memprofile flag pair shared by the
// commands that run simulations. Profiling observes the host process
// only; it never touches a simulation's inputs or outputs.
type Profiles struct {
	CPU string // file for a CPU profile of the run; empty: none
	Mem string // file for an allocation profile written when the run ends; empty: none
}

// AddFlags registers the two flags on fs.
func (p *Profiles) AddFlags(fs *flag.FlagSet) {
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile of the run to this `file`")
	fs.StringVar(&p.Mem, "memprofile", "", "write an allocation profile to this `file` when the run ends")
}

// Start begins the CPU profile, if one was asked for, and returns the
// function that ends it and writes the allocation profile. The caller
// runs stop once, after the work to be profiled, and reports its error.
// With both names empty, Start and stop do nothing.
func (p Profiles) Start() (stop func() error, err error) {
	var cpu *os.File
	if p.CPU != "" {
		if cpu, err = os.Create(p.CPU); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close() // nothing was written; the start error is the one to report
			return nil, err
		}
	}
	return func() error {
		var err error
		if cpu != nil {
			pprof.StopCPUProfile()
			err = cpu.Close()
		}
		if p.Mem != "" {
			err = errors.Join(err, writeAllocProfile(p.Mem))
		}
		return err
	}, nil
}

// writeAllocProfile writes the process's allocation profile (every
// allocation since start, like go test -memprofile) to path.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // flush the allocations of the cycle in progress into the profile
	err = pprof.Lookup("allocs").WriteTo(f, 0)
	return errors.Join(err, f.Close())
}
