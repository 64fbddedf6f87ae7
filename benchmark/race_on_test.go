//go:build race

package main

// raceOn reports that the race detector is compiled in: kernels run an order
// of magnitude slower, so the smoke pass skips the traced half and the
// micro-loops (the recorder is raced by TestTimedProgramIsTransparent).
const raceOn = true
