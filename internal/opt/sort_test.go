package opt

// appendDesc is the descending-sorted copy of times the differential
// tests feed the *Desc kernels directly, made the way a solve makes it.
// (The sort itself is tested where it lives, in internal/keysort.)
func appendDesc(times, buf []float64) []float64 {
	s := solveScratch{desc: buf}
	s.sortDesc(times)
	return s.desc
}
