package obs

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profile is a CLI's -cpuprofile, -memprofile and -stats flags.
type Profile struct {
	// Prog prefixes every message, as in "sweep: memprofile: ...".
	Prog string
	// CPU and Mem name the pprof files to write; "" writes none.
	CPU, Mem string
	// Stats prints the Write table after the run.
	Stats bool
}

// Run runs work under the profile: a CPU profile to p.CPU while it
// runs, then a heap profile to p.Mem, then the Write table under a
// "--- <prog> internal stats ---" banner, all on stderr's side of the
// output so stdout stays byte-comparable. It returns work's error. Only
// a CPU profile that cannot start fails the run, before work runs; a
// profile or table that cannot be written is reported on stderr and
// the run's result stands.
func (p Profile) Run(stderr io.Writer, work func() error) error {
	if p.CPU != "" {
		f, err := os.Create(p.CPU)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close() // the start error is the one to report
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "%s: cpuprofile: %v\n", p.Prog, err)
			}
		}()
	}
	err := work()
	if p.Mem != "" {
		if f, ferr := os.Create(p.Mem); ferr == nil {
			runtime.GC()
			if werr := pprof.WriteHeapProfile(f); werr != nil {
				fmt.Fprintf(stderr, "%s: memprofile: %v\n", p.Prog, werr)
			}
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintf(stderr, "%s: memprofile: %v\n", p.Prog, cerr)
			}
		} else {
			fmt.Fprintf(stderr, "%s: memprofile: %v\n", p.Prog, ferr)
		}
	}
	if p.Stats {
		fmt.Fprintf(stderr, "--- %s internal stats ---\n", p.Prog)
		if werr := Write(stderr); werr != nil {
			fmt.Fprintf(stderr, "%s: stats: %v\n", p.Prog, werr)
		}
	}
	return err
}
