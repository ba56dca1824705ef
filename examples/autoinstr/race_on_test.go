//go:build race

package main

// raceEnabled reports that the race detector is compiled in. It slows
// the instrumented workload's hooks far more than the plain package, so
// the numeric overhead bound does not hold.
const raceEnabled = true
