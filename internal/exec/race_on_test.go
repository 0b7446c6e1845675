//go:build race

package exec_test

// raceEnabled reports that the race detector is active, which inflates
// allocation counts; the allocation pins skip themselves.
const raceEnabled = true
