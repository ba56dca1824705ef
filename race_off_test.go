//go:build !race

package tempest

const raceEnabled = false
