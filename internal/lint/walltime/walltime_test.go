package walltime_test

import (
	"testing"

	"ecgrid/internal/lint/analysistest"
	"ecgrid/internal/lint/walltime"
)

func TestWallTime(t *testing.T) {
	analysistest.Run(t, "testdata", walltime.Analyzer,
		"ecgrid/internal/sim/wtfix",         // in scope: hits and suppressions
		"ecgrid/internal/faults/wtfaults",   // in scope: fault timing is sim time
		"ecgrid/internal/spatial/wtspatial", // in scope: re-bucketing is sim time
		"ecgrid/internal/scengen/wtscengen", // in scope: generation is sim-seeded
		"ecgrid/internal/radio/wtradio",     // in scope: drift deadlines are sim time
		"ecgrid/internal/batch/wtclean",     // out of scope: no diagnostics
	)
}
