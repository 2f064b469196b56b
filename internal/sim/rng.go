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
// outputs of its source, computed in closed form from the seed when the
// stream is created (fillPrefix), without seeding a source. A stream
// that draws past them builds its own source from the same seed, its one
// seeding, and skips prefixLen outputs, so every stream yields
// math/rand's sequence exactly.
type RNG struct {
	seed    int64
	streams map[string]*rand.Rand
}

// prefixLen is how many outputs a stream holds before it builds its own
// generator. It is fixed: the fingerprints do not depend on it, only
// memory and the number of streams that spill (DESIGN.md §8). The
// closed-form fill and its rngCooked tables are written for this length.
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
	fillPrefix(&p.buf, p.seed)
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

// The closed form of a source's first outputs. rand.NewSource(s) seeds a
// 607-word vector vec and then draws by lagged addition: its output k,
// for k < prefixLen, is vec[333−k] + vec[606−k], and none of those
// draws writes an index a later one of them reads. Seeding sets
//
//	vec[i] = x(21+3i)<<40 ^ x(22+3i)<<20 ^ x(23+3i) ^ rngCooked[i]
//
// where x(n) is state n of the Lehmer generator x ← 48271·x mod (2³¹−1)
// started from the normalised seed, so x(n) = x(0)·48271ⁿ mod (2³¹−1).
// fillPrefix evaluates that for the 32 entries the prefix reads, from
// fixed multipliers, instead of running the generator through all 1,821
// states. TestPrefixMatchesSource and FuzzPrefixMatchesSource pin it to
// rand.NewSource.

const (
	seedMod  = 1<<31 - 1 // modulus of math/rand's seeding generator
	seedMul  = 48271     // its multiplier
	seedZero = 89482311  // the state math/rand substitutes for a zero seed
)

// cookedFeed and cookedTap are math/rand's rngCooked[318:334] and
// rngCooked[591:607], the words seeding XORs into the vector entries the
// prefix reads. They are copied from the Go distribution's
// src/math/rand/rng.go (Go 1.24: lines 104–108 and 172–176 of the
// rngCooked table); math/rand's sequence per seed is part of its
// compatibility promise, so they do not change between releases.
var (
	cookedFeed = [prefixLen]int64{
		-8394115921626182539, -4304087667751778808, 2681532557646850893, 3681559472488511871,
		-3915372517896561773, -2889241648411946534, -6564663803938238204, -8060058171802589521,
		581945337509520675, 3648778920718647903, -4799698790548231394, -7602572252857820065,
		220828013409515943, -1072987336855386047, 4287360518296753003, -4633371852008891965,
	}
	cookedTap = [prefixLen]int64{
		-7490986807540332668, 4133292154170828382, 2918308698224194548, -7703910638917631350,
		-3929437324238184044, -4300543082831323144, -6344160503358350167, 5896236396443472108,
		-758328221503023383, -1894351639983151068, -307900319840287220, -6278469401177312761,
		-2171292963361310674, 8382142935188824023, 9103922860780351547, 4152330101494654406,
	}
)

// seedWord is one seeded vector entry vec[i] as a function of the
// normalised seed: the multipliers 48271ⁿ mod (2³¹−1) for its three
// states n = 21+3i, 22+3i and 23+3i, and its rngCooked word.
type seedWord struct {
	mul    [3]uint64
	cooked uint64
}

// prefixFeed and prefixTap hold vec[318..333] and vec[591..606] in
// index order: output k reads entry prefixLen−1−k of each.
var (
	prefixFeed = seedWords(318, &cookedFeed)
	prefixTap  = seedWords(591, &cookedTap)
)

// seedWords returns the seedWords of vec[first], vec[first+1], ...
func seedWords(first int, cooked *[prefixLen]int64) (w [prefixLen]seedWord) {
	for j := range w {
		n := 21 + 3*(first+j)
		for m := range w[j].mul {
			w[j].mul[m] = seedPow(n + m)
		}
		w[j].cooked = uint64(cooked[j])
	}
	return w
}

// seedPow returns 48271ⁿ mod (2³¹−1), the jump of n seeding steps.
func seedPow(n int) uint64 {
	r, b := uint64(1), uint64(seedMul)
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			r = r * b % seedMod
		}
		b = b * b % seedMod
	}
	return r
}

// value returns the entry for normalised seed x, in [1, 2³¹−1). The
// shifts drop the high bits of each state as math/rand's int64 shifts do.
func (w *seedWord) value(x uint64) uint64 {
	return (x*w.mul[0]%seedMod)<<40 ^ (x*w.mul[1]%seedMod)<<20 ^ x*w.mul[2]%seedMod ^ w.cooked
}

// fillPrefix sets buf to the first prefixLen Uint64 outputs of
// rand.NewSource(seed).
func fillPrefix(buf *[prefixLen]uint64, seed int64) {
	s := seed % seedMod
	if s < 0 {
		s += seedMod
	}
	if s == 0 {
		s = seedZero
	}
	x := uint64(s)
	for k := range buf {
		j := prefixLen - 1 - k
		buf[k] = prefixFeed[j].value(x) + prefixTap[j].value(x)
	}
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
