package sim

import (
	"hash/fnv"
	"math/rand"
)

// RNG is a collection of named, independently-seeded random number streams.
//
// Simulations draw randomness for distinct concerns (mobility, traffic,
// backoff, placement, ...) from distinct streams so that adding draws to
// one concern does not perturb any other. Each stream is seeded from the
// root seed and the stream name, so a (seed, name) pair always yields the
// same sequence: that of rand.New(rand.NewSource(seed ^ fnv64a(name))).
//
// Most streams draw a handful of values in a whole run (a 10k-host
// scenario has one per host, each drawing twice), so a stream does not
// keep math/rand's 607-word generator. It holds the first prefixLen raw
// outputs of its source, which the RNG's one scratch source, re-seeded
// per stream, computes when the stream is created. A stream that draws
// past them builds its own source from the same seed and skips
// prefixLen outputs, so every stream yields math/rand's sequence exactly.
type RNG struct {
	seed    int64
	streams map[string]*rand.Rand
	scratch rand.Source64 // re-seeded to fill each new stream's prefix
}

// prefixLen is how many outputs a stream holds before it builds its own
// generator. It is fixed: the fingerprints do not depend on it, only
// memory and the number of streams that spill (DESIGN.md §8).
const prefixLen = 16

// NewRNG returns a stream collection rooted at seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed, streams: make(map[string]*rand.Rand)}
}

// Seed returns the root seed.
func (r *RNG) Seed() int64 { return r.seed }

// Stream returns the named stream, creating it on first use.
func (r *RNG) Stream(name string) *rand.Rand {
	if s, ok := r.streams[name]; ok {
		return s
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	p := &prefixSource{seed: r.seed ^ int64(h.Sum64())}
	if r.scratch == nil {
		r.scratch = rand.NewSource(p.seed).(rand.Source64)
	} else {
		r.scratch.Seed(p.seed)
	}
	for i := range p.buf {
		p.buf[i] = r.scratch.Uint64()
	}
	s := rand.New(p)
	r.streams[name] = s
	return s
}

// prefixSource is a rand.Source64 that yields rand.NewSource(seed)'s
// sequence from its first prefixLen outputs, held in buf, and builds
// that source only when a draw goes past them.
type prefixSource struct {
	src  rand.Source64 // nil until the stream spills past buf or is re-seeded
	next int           // outputs already taken from buf
	seed int64
	buf  [prefixLen]uint64
}

// Uint64 returns the next raw output of the stream.
func (p *prefixSource) Uint64() uint64 {
	if p.src != nil {
		return p.src.Uint64()
	}
	return p.unspilled()
}

// Int63 masks an output to 63 bits, as math/rand's own source does. It
// reads a spilled stream's source directly: the heavy streams draw
// through here, and this keeps them one nil check and one call away
// from the source.
func (p *prefixSource) Int63() int64 {
	if p.src != nil {
		return p.src.Int63()
	}
	return int64(p.unspilled() & (1<<63 - 1))
}

// unspilled returns the next output of a stream without a source of its
// own: from buf while it lasts, then from the source it builds,
// positioned after buf.
func (p *prefixSource) unspilled() uint64 {
	if p.next < prefixLen {
		v := p.buf[p.next]
		p.next++
		return v
	}
	p.src = rand.NewSource(p.seed).(rand.Source64)
	for range prefixLen {
		p.src.Uint64()
	}
	return p.src.Uint64()
}

// Seed restarts the stream as rand.NewSource(seed), keeping the contract
// of (*rand.Rand).Seed.
func (p *prefixSource) Seed(seed int64) {
	p.src = rand.NewSource(seed).(rand.Source64)
}

// Uniform draws from [lo, hi) on the named stream. It panics if hi < lo.
func (r *RNG) Uniform(name string, lo, hi float64) float64 {
	if hi < lo {
		panic("sim: Uniform with hi < lo")
	}
	if hi == lo {
		return lo
	}
	return lo + r.Stream(name).Float64()*(hi-lo)
}

// Intn draws a uniform integer in [0, n) on the named stream.
func (r *RNG) Intn(name string, n int) int {
	return r.Stream(name).Intn(n)
}

// Exp draws an exponentially-distributed value with the given mean.
func (r *RNG) Exp(name string, mean float64) float64 {
	return r.Stream(name).ExpFloat64() * mean
}

// Perm returns a random permutation of [0, n) on the named stream.
func (r *RNG) Perm(name string, n int) []int {
	return r.Stream(name).Perm(n)
}
