package sim

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestRNGDeterministicPerSeedAndName(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Stream("mobility").Float64() != b.Stream("mobility").Float64() {
			t.Fatal("same (seed, name) produced different sequences")
		}
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	// Drawing extra values from one stream must not perturb another.
	a := NewRNG(7)
	b := NewRNG(7)
	for i := 0; i < 50; i++ {
		a.Stream("traffic").Float64() // extra draws on a different stream
	}
	for i := 0; i < 20; i++ {
		if a.Stream("mobility").Float64() != b.Stream("mobility").Float64() {
			t.Fatal("draws on one stream perturbed another stream")
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := true
	for i := 0; i < 10; i++ {
		if a.Stream("x").Float64() != b.Stream("x").Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestRNGDifferentNamesDiffer(t *testing.T) {
	r := NewRNG(1)
	same := true
	x, y := r.Stream("x"), r.Stream("y")
	for i := 0; i < 10; i++ {
		if x.Float64() != y.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different stream names produced identical sequences")
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := NewRNG(3)
	f := func(a, b int32) bool {
		lo, hi := float64(a), float64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		v := r.Uniform("u", lo, hi)
		return v >= lo && (v < hi || lo == hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGUniformDegenerate(t *testing.T) {
	r := NewRNG(3)
	if v := r.Uniform("u", 5, 5); v != 5 {
		t.Fatalf("Uniform(5,5) = %v, want 5", v)
	}
}

func TestRNGUniformInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uniform with hi<lo did not panic")
		}
	}()
	NewRNG(1).Uniform("u", 2, 1)
}

func TestRNGExpPositiveMean(t *testing.T) {
	r := NewRNG(9)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.Exp("e", 2.0)
		if v < 0 {
			t.Fatalf("Exp returned negative value %v", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 1.8 || mean > 2.2 {
		t.Fatalf("Exp empirical mean %v, want ≈2.0", mean)
	}
}

func TestRNGIntnAndPerm(t *testing.T) {
	r := NewRNG(4)
	for i := 0; i < 100; i++ {
		if v := r.Intn("i", 10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	p := r.Perm("p", 8)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 8 || seen[v] {
			t.Fatalf("Perm invalid: %v", p)
		}
		seen[v] = true
	}
	if r.Seed() != 4 {
		t.Fatalf("Seed() = %d, want 4", r.Seed())
	}
}

// fnv64a is the stream-name hash that Stream XORs into the root seed.
func fnv64a(name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return int64(h.Sum64())
}

// drawKinds is the number of draw kinds that draw mixes.
const drawKinds = 10

// draw makes one draw of the given kind and returns it as raw words, so
// that two generators can be compared draw for draw. The kinds cover
// direct reads of both source methods, power-of-two and rejection-sampled
// Intn, Int63n, and the ziggurat and permutation helpers, which take a
// varying number of outputs per draw.
func draw(r *rand.Rand, kind, n int) []uint64 {
	switch kind % drawKinds {
	case 0:
		return []uint64{math.Float64bits(r.Float64())}
	case 1:
		return []uint64{uint64(r.Intn(64))}
	case 2:
		return []uint64{uint64(r.Intn(1000))}
	case 3:
		return []uint64{uint64(r.Int63n(1 << 40))}
	case 4:
		return []uint64{uint64(r.Int63n(1e12 + 7))}
	case 5:
		return []uint64{uint64(r.Int63())}
	case 6:
		return []uint64{r.Uint64()}
	case 7:
		return []uint64{math.Float64bits(r.ExpFloat64())}
	case 8:
		return []uint64{math.Float64bits(r.NormFloat64())}
	default:
		var out []uint64
		for _, v := range r.Perm(1 + n%9) {
			out = append(out, uint64(v))
		}
		return out
	}
}

// TestStreamsMatchMathRand pins every registered stream, format families
// expanded at low and high host indices, to the math/rand sequence its
// seed names, over a mix of draws long enough to run well past any
// stored prefix. The streams of one RNG are all created before the first
// draw and then drawn round robin, so no stream may depend on state that
// a later stream's creation reuses.
func TestStreamsMatchMathRand(t *testing.T) {
	const draws = 64 // four times the 16-output prefix a stream stores
	var names []string
	for _, name := range StreamRegistry {
		switch {
		case strings.Contains(name, "%d"):
			for _, i := range []int{0, 1, 9999} {
				names = append(names, fmt.Sprintf(name, i))
			}
		case strings.Contains(name, "%s"):
			for _, i := range []int{0, 1, 9999} {
				names = append(names, fmt.Sprintf(name, fmt.Sprintf("ref.%d", i)),
					fmt.Sprintf(name, fmt.Sprintf("m.%d", i)))
			}
		default:
			names = append(names, name)
		}
	}
	for seed := int64(1); seed <= 64; seed++ {
		rng := NewRNG(seed)
		got := make([]*rand.Rand, len(names))
		want := make([]*rand.Rand, len(names))
		for j, name := range names {
			got[j] = rng.Stream(name)
			want[j] = rand.New(rand.NewSource(seed ^ fnv64a(name)))
		}
		for i := 0; i < draws; i++ {
			for j, name := range names {
				kind := i + j + int(seed)
				if g, w := draw(got[j], kind, i), draw(want[j], kind, i); !slices.Equal(g, w) {
					t.Fatalf("seed %d stream %q draw %d (kind %d): got %v, math/rand gives %v",
						seed, name, i, kind%drawKinds, g, w)
				}
			}
		}
	}
}

// FuzzStreamMatchesMathRand drives one stream with a fuzzer-chosen mix
// of draws and compares it with math/rand. Two op codes go beyond
// draws: one re-seeds the stream through (*rand.Rand).Seed, after which
// it must match rand.NewSource of the new seed, and one creates another
// stream on the same RNG, which must not disturb the first.
func FuzzStreamMatchesMathRand(f *testing.F) {
	f.Add(int64(1), StreamRadioBackoff, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, int64(5))
	f.Add(int64(-7), "scengen.manhattan.9999", append(bytes.Repeat([]byte{2}, 18), 10, 6), int64(0))
	f.Add(int64(0), "", []byte{11, 9, 9, 9, 7, 8, 10, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, int64(-1<<63))
	f.Fuzz(func(t *testing.T, root int64, name string, ops []byte, reseed int64) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		rng := NewRNG(root)
		got := rng.Stream(name)
		want := rand.New(rand.NewSource(root ^ fnv64a(name)))
		for i, op := range ops {
			switch kind := int(op) % (drawKinds + 2); kind {
			case drawKinds:
				s := reseed + int64(i)
				got.Seed(s)
				want = rand.New(rand.NewSource(s))
			case drawKinds + 1:
				rng.Stream(fmt.Sprintf("%s/%d", name, i)).Uint64()
			default:
				if g, w := draw(got, kind, i), draw(want, kind, i); !slices.Equal(g, w) {
					t.Fatalf("op %d (kind %d): got %v, math/rand gives %v", i, kind, g, w)
				}
			}
		}
	})
}

// TestIdleStreamFootprint gates the memory of a stream that draws only a
// few values, as each per-host stream of a 10k-host scenario does: it
// must cost a small fraction of math/rand's 4.9 KB generator state.
func TestIdleStreamFootprint(t *testing.T) {
	const n, maxBytes = 10000, 512
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rng := NewRNG(1)
	for i := 0; i < n; i++ {
		s := rng.Stream(fmt.Sprintf(StreamScengenManhattan, i))
		s.Float64()
		s.Float64()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(rng)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("%d idle streams: %d B live per stream", n, per)
	if per > maxBytes {
		t.Fatalf("an idle stream holds %d B, want at most %d", per, maxBytes)
	}
}

// BenchmarkStreamCreate measures creating a stream and filling its
// prefix, as set-up does once per host. Each RNG takes 1,024 streams
// before a new one replaces it, so map growth is amortized as it is in
// a scenario of that size.
func BenchmarkStreamCreate(b *testing.B) {
	names := make([]string, 1024)
	for i := range names {
		names[i] = fmt.Sprintf(StreamScengenManhattan, i)
	}
	b.ReportAllocs()
	var rng *RNG
	for i := 0; i < b.N; i++ {
		j := i % len(names)
		if j == 0 {
			rng = NewRNG(int64(i))
		}
		rng.Stream(names[j])
	}
}

// prefixEdgeSeeds are the seeds where fillPrefix's normalisation can go
// wrong: zero and the seed math/rand substitutes for it, the signs,
// multiples of the modulus 2³¹−1 and their neighbours, 2³¹, and the
// ends of int64.
var prefixEdgeSeeds = []int64{
	0, 1, -1, seedMod, -seedMod, seedMod - 1, seedMod + 1, -seedMod + 1, -seedMod - 1,
	1 << 31, -1 << 31, 2 * seedMod, -2 * seedMod, 1234567 * seedMod, -1234567 * seedMod,
	(math.MaxInt64 / seedMod) * seedMod, (math.MinInt64 / seedMod) * seedMod,
	seedZero, -seedZero, seedZero + seedMod, math.MinInt64, math.MaxInt64,
	math.MinInt64 + 1, math.MaxInt64 - 1,
}

// checkPrefix fails t unless fillPrefix(seed) equals the first prefixLen
// Uint64 outputs of src, freshly seeded with seed.
func checkPrefix(t *testing.T, src rand.Source64, seed int64) {
	t.Helper()
	var buf [prefixLen]uint64
	fillPrefix(&buf, seed)
	src.Seed(seed)
	for k, got := range buf {
		if want := src.Uint64(); got != want {
			t.Fatalf("seed %d output %d: closed form gives %#x, rand.NewSource gives %#x", seed, k, got, want)
		}
	}
}

// TestPrefixMatchesSource pins the closed-form prefix to rand.NewSource
// over the edge seeds and 10⁵ seeds from a fixed generator, half of them
// shifted into the int32 range, where the modulus reduction is mostly
// the identity and negative seeds take the wrap-around branch.
func TestPrefixMatchesSource(t *testing.T) {
	src := rand.NewSource(0).(rand.Source64)
	for _, seed := range prefixEdgeSeeds {
		checkPrefix(t, src, seed)
	}
	gen := rand.New(rand.NewSource(20031015))
	for i := 0; i < 100000; i++ {
		seed := int64(gen.Uint64())
		if i%2 == 1 {
			seed >>= 32
		}
		checkPrefix(t, src, seed)
	}
}

// FuzzPrefixMatchesSource compares the closed-form prefix with
// rand.NewSource for raw fuzzer-chosen seeds.
func FuzzPrefixMatchesSource(f *testing.F) {
	for _, seed := range prefixEdgeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkPrefix(t, rand.NewSource(0).(rand.Source64), seed)
	})
}
