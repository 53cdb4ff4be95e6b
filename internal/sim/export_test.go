package sim

// The oracle, for the tests in package sim_test (which may import
// internal/algo; the in-package tests cannot).
var (
	OracleRun     = oracleRun
	OracleRunOpen = oracleRunOpen
)
