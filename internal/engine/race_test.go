//go:build race

package engine

// The race detector changes allocation counts (sync.Pool, for one, drops
// items at random under -race), so allocation guards compare counts only
// in normal builds.
func init() { raceEnabled = true }
