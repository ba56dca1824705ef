//go:build amd64 || arm64

package instrument

// getg returns the address of the running goroutine's runtime g, read
// from the register or thread-local slot the runtime keeps it in
// (lanekey_amd64.s, lanekey_arm64.s).
func getg() uintptr

// laneKey identifies the calling goroutine for as long as it lives. The
// runtime never frees or moves a g (growing a goroutine's stack copies
// the stack, not the g), so the address is stable; it does hand a dead
// goroutine's g to a later one, which is what lets lanes be reused — see
// binding.lane.
func laneKey() uintptr { return getg() }
