// Command calproc is the cold workload's calibration process: it runs
// the calibration loop Reps times and exits.
//
// A cold session is mostly starting a process: the kernel maps and
// faults in a binary and the Go runtime starts its threads, work that the
// host's state slows differently from a loop in a warm process. So the
// cold workload calibrates with a process too, timed from start to exit.
// It imports nothing of the repository, so no change to the program can
// move it.
package main

import "repro/perfbench/calib"

// Reps makes the process about as long as a cold session on a small
// program.
const Reps = 10

func main() {
	for i := 0; i < Reps; i++ {
		calib.Loop()
	}
}
