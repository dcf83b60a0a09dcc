//go:build !race

// Package raceflag tells tests whether the race detector is on: it makes
// the runtime allocate where the plain build does not, so allocation
// ceilings (testing.AllocsPerRun) only hold without it.
package raceflag

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
