package globalrand_test

import (
	"testing"

	"ecgrid/internal/lint/analysistest"
	"ecgrid/internal/lint/globalrand"
)

func TestGlobalRand(t *testing.T) {
	analysistest.Run(t, "testdata", globalrand.Analyzer,
		"ecgrid/internal/traffic/grfix",     // banned everywhere; constructors legal
		"ecgrid/internal/scengen/grscengen", // generator draws must come from streams
		"ecgrid/internal/sim",               // rng.go exempt, sibling file not
	)
}
