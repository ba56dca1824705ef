//go:build race

package tempest

// raceEnabled reports that the race detector is compiled in. Its
// slowdown lands on the drain pass, which the overhead accountant books
// as profiler self-time, so numeric overhead bounds do not hold.
const raceEnabled = true
