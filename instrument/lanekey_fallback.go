//go:build !amd64 && !arm64

package instrument

import "runtime"

// laneKey identifies the calling goroutine. Architectures without an
// assembly getg (see lanekey_asm.go) key lanes by goroutine id instead:
// portable, but microseconds per call, and since ids are never reused
// every goroutine that ever traces keeps its own lane.
func laneKey() uintptr { return uintptr(goroutineID()) }

// goroutineID parses the current goroutine's id from its stack header
// ("goroutine 123 [running]: …").
func goroutineID() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	// Skip "goroutine ".
	var id uint64
	for _, c := range buf[10:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
