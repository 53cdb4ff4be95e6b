//go:build race

package repro_test

// raceDetector reports a -race build, whose sync.Pool drops a quarter
// of all Puts on purpose (see kernel.pooled).
const raceDetector = true
