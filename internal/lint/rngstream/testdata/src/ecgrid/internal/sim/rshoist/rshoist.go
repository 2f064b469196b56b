// Package rshoist checks rngstream against the hoisted-name pattern:
// per-host stream names are minted once from the registry
// (fmt.Sprintf over sim.StreamMobility) and stored in a slice, so the
// draw site passes a variable the analyzer cannot trace to the registry
// and must be annotated — while an unannotated variable name is still
// flagged, keeping improvised caches visible.
package rshoist

type RNG struct{}

func (r *RNG) Intn(name string, n int) int { return 0 }

type hosts struct {
	rng     *RNG
	streams []string
}

func draw(h *hosts, i, n int) int {
	//simlint:stream streams[i] is fmt.Sprintf(sim.StreamMobility, i), hoisted at construction
	v := h.rng.Intn(h.streams[i], n)
	return v
}

func unannotated(h *hosts, i, n int) int {
	return h.rng.Intn(h.streams[i], n) // want `RNG stream name must be a sim package constant`
}
