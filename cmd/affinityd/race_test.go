//go:build race

package main

// raceEnabled reports whether the test binary is race-built; the fleet
// smoke test then race-builds the daemon it boots.
const raceEnabled = true
