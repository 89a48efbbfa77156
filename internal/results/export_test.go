package results

// The degradation constants, for the fault tests of package results_test.
const (
	FailThreshold = failThreshold
	ReprobeAfter  = reprobeAfter
)
