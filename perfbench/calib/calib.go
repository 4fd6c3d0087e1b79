// Package calib is the benchmark's calibration loop: a fixed amount of
// work whose duration tells how fast the host is at the moment.
//
// A shared host's speed drifts: on the 2-vCPU virtual machine the
// benchmark was sized on, the same session on the same inputs took a
// fifth longer in one 10-second stretch than in the next, with nothing
// else running in the machine. Such drift moves every latency of a run
// alike and cannot be averaged away inside a run. So every session's
// latency is divided by the time of calibration work timed right next to
// it, on the same host at the same moment: the ratio keeps what the
// program costs and drops how fast the host happened to be.
//
// The package imports nothing of the repository, so no change to the
// program can move the loop. The loop resembles what the program does
// most — a switch-dispatched interpreter loop over a small array memory
// and a hash map — and it does not allocate, so the program's garbage
// cannot slow it down.
package calib

import "time"

// iters sizes the loop at about a quarter of a millisecond on that
// machine; words is the size of its array memory (64 KiB).
const (
	iters = 40_000
	words = 1 << 13
)

var (
	mem  [words]uint64
	tab  = make(map[uint64]uint64, 1024)
	sink uint64
)

func init() {
	for k := uint64(0); k < 1024; k++ {
		tab[k] = k
	}
}

// Loop runs the calibration loop once and returns its duration.
func Loop() time.Duration {
	prog := [16]uint8{0, 1, 2, 3, 1, 0, 2, 4, 3, 1, 0, 4, 2, 1, 3, 0}
	var acc, x uint64 = 1, 88172645463325252
	start := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		switch prog[i&15] {
		case 0:
			acc += mem[x&(words-1)]
		case 1:
			mem[x&(words-1)] = acc ^ x
		case 2:
			tab[x&1023] += acc
		case 3:
			acc += tab[(x>>3)&1023]
		case 4:
			acc = acc*31 + x>>11
		}
	}
	d := time.Since(start)
	sink += acc
	return d
}
