//go:build race

package repl_test

// raceEnabled reports that the race detector is active; the tests that
// hold a large database twice in memory skip themselves.
const raceEnabled = true
