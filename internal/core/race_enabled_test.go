//go:build race

package core

// raceEnabled reports that the race detector is active. Allocation
// assertions skip under it: race instrumentation allocates shadow state,
// which is not the regression those tests exist to catch.
const raceEnabled = true
