package rngstream_test

import (
	"testing"

	"ecgrid/internal/lint/analysistest"
	"ecgrid/internal/lint/rngstream"
)

func TestRNGStream(t *testing.T) {
	analysistest.Run(t, "testdata", rngstream.Analyzer,
		"ecgrid/internal/sim",          // registry constants legal; rng.go exempt
		"ecgrid/internal/runner/rsuse", // non-sim constants flagged, bare or as a format
		"ecgrid/internal/sim/rshoist",  // hoisted registry names need annotation
	)
}
