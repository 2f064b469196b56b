// Package rsuse checks that constants declared OUTSIDE the sim package
// do not satisfy rngstream: only the central registry
// (internal/sim/streams.go) may mint stream names.
package rsuse

import "fmt"

type RNG struct{}

func (r *RNG) Uniform(name string, lo, hi float64) float64 { return lo }

const (
	localPlace = "place" // a local const is not the registry
	localMob   = "mob.%d"
)

func use(r *RNG, i int) {
	r.Uniform(localPlace, 0, 1)               // want `RNG stream name must be a sim package constant`
	r.Uniform("raw", 0, 1)                    // want `RNG stream name must be a sim package constant`
	r.Uniform(fmt.Sprintf(localMob, i), 0, 1) // want `RNG stream name must be a sim package constant`
}
