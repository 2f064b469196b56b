// Package claims turns the paper's qualitative evaluation claims into
// executable checks: each Claim quotes the paper, runs the simulations it
// needs, and returns a PASS/FAIL verdict with the measured numbers.
// cmd/repro prints the whole checklist — the repository's reproduction
// status as a program rather than prose.
package claims

import (
	"context"
	"fmt"
	"sync"

	"ecgrid/internal/batch"
	"ecgrid/internal/runner"
	"ecgrid/internal/scenario"
)

// Verdict is one claim's outcome.
type Verdict struct {
	Pass   bool
	Detail string // the measured numbers behind the verdict
}

// Claim is one checkable statement from the paper.
type Claim struct {
	ID        string
	Statement string // the paper's claim, paraphrased from §4
	Check     func(e *Env) Verdict
}

// Env runs and caches simulations so claims share them. The simulations
// go through a batch.Executor, which deduplicates by content key: when
// claims are checked concurrently (CheckAll), two claims requesting the
// same configuration share one run, and the pool caps how many
// simulations execute at once. Env is safe for use from multiple
// goroutines once the exported fields are set.
type Env struct {
	// Seed roots every simulation.
	Seed int64
	// Fast shrinks horizons (for tests); verdict thresholds are chosen
	// to hold in both modes.
	Fast bool
	// Progress, if non-nil, is told about each simulation run. Calls are
	// serialized; set it before the first claim runs.
	Progress func(string)
	// Workers caps concurrent simulations; <= 0 uses GOMAXPROCS.
	Workers int
	// Store, if non-nil, is a persistent content-addressed result cache
	// consulted before each run and filled after (see batch.ResultStore
	// and internal/store).
	Store batch.ResultStore

	once sync.Once
	exec *batch.Executor
}

// NewEnv returns an empty environment.
func NewEnv(seed int64, fast bool) *Env {
	return &Env{Seed: seed, Fast: fast}
}

// init builds the executor on first use, after the caller has had the
// chance to set Progress, Workers, and Store.
func (e *Env) init() {
	e.exec = batch.NewExecutor(context.Background(), batch.Options{
		Workers:  e.Workers,
		Progress: batch.NewSink(e.Progress),
		Store:    e.Store,
	})
}

// run executes (or returns the cached) simulation for cfg. A simulation
// failure is fatal to the claim checking it (the configs are fixed and
// known-valid); CheckAll confines the resulting panic to that claim's
// verdict.
func (e *Env) run(cfg scenario.Config) *runner.Results {
	e.once.Do(e.init)
	r, err := e.exec.Run(fmt.Sprintf("%v dur=%v", cfg, cfg.Duration), cfg)
	if err != nil {
		panic(fmt.Errorf("claims: %v: %w", cfg, err))
	}
	return r
}

// CheckAll evaluates the claims, fanning the checks across workers
// goroutines (<= 0 uses the Env's worker count) while keeping verdicts
// in claim order. Claims overlap heavily in the simulations they need;
// the Env deduplicates those, so claim-level parallelism costs no
// duplicate runs. A claim whose check panics fails with the panic as its
// detail instead of taking down the whole checklist.
func CheckAll(e *Env, claims []Claim, workers int) []Verdict {
	if workers <= 0 {
		workers = e.Workers
	}
	if workers <= 0 || workers > len(claims) {
		workers = len(claims)
	}
	verdicts := make([]Verdict, len(claims))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				verdicts[i] = checkOne(e, claims[i])
			}
		}()
	}
	for i := range claims {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return verdicts
}

// checkOne runs one claim with panic isolation.
func checkOne(e *Env, c Claim) (v Verdict) {
	defer func() {
		if r := recover(); r != nil {
			v = Verdict{Pass: false, Detail: fmt.Sprintf("check panicked: %v", r)}
		}
	}()
	return c.Check(e)
}

// base is the paper's common setup.
func (e *Env) base(p scenario.ProtocolKind, speed float64, hosts int, duration float64) scenario.Config {
	cfg := scenario.Default(p)
	cfg.MaxSpeedMS = speed
	cfg.Hosts = hosts
	cfg.Duration = duration
	cfg.Seed = e.Seed
	return cfg
}

// lifetimeHorizon is long enough for all alive-fraction claims.
func (e *Env) lifetimeHorizon() float64 {
	if e.Fast {
		return 700
	}
	return 900
}

func pass(format string, args ...any) Verdict {
	return Verdict{Pass: true, Detail: fmt.Sprintf(format, args...)}
}

func fail(format string, args ...any) Verdict {
	return Verdict{Pass: false, Detail: fmt.Sprintf(format, args...)}
}

// All returns the paper's claims in evaluation order.
func All() []Claim {
	return []Claim{
		{
			ID:        "grid-dies-590",
			Statement: `"The network that runs GRID ... is down when the simulation time = 590 seconds" (Fig. 4)`,
			Check: func(e *Env) Verdict {
				r := e.run(e.base(scenario.GRID, 1, 100, e.lifetimeHorizon()))
				first := r.FirstDeathAt
				at650 := r.Collector.Alive.At(650)
				if first >= 450 && first <= 600 && at650 <= 0.05 {
					return pass("first death %.0f s, %.0f%% alive at 650 s", first, 100*at650)
				}
				return fail("first death %.0f s, %.0f%% alive at 650 s", first, 100*at650)
			},
		},
		{
			ID:        "ecgrid-extends-lifetime",
			Statement: `"Both ECGRID and GAF prolong the network lifetime" (Fig. 4)`,
			Check: func(e *Env) Verdict {
				gr := e.run(e.base(scenario.GRID, 1, 100, e.lifetimeHorizon()))
				ec := e.run(e.base(scenario.ECGRID, 1, 100, e.lifetimeHorizon()))
				gaf := e.run(e.base(scenario.GAF, 1, 100, e.lifetimeHorizon()))
				g, c, f := gr.Collector.Alive.At(650), ec.Collector.Alive.At(650), gaf.Collector.Alive.At(650)
				if c > g+0.3 && f > g+0.3 {
					return pass("alive at 650 s: GRID %.2f, ECGRID %.2f, GAF %.2f", g, c, f)
				}
				return fail("alive at 650 s: GRID %.2f, ECGRID %.2f, GAF %.2f", g, c, f)
			},
		},
		{
			ID:        "gaf-slightly-above-ecgrid",
			Statement: `"GAF is more energy-conserving than ECGRID ... 85% and 81% of hosts are alive for GAF and ECGRID" at 1 m/s (Fig. 4a)`,
			Check: func(e *Env) Verdict {
				ec := e.run(e.base(scenario.ECGRID, 1, 100, e.lifetimeHorizon()))
				gaf := e.run(e.base(scenario.GAF, 1, 100, e.lifetimeHorizon()))
				c, f := ec.Collector.Alive.At(700), gaf.Collector.Alive.At(700)
				if f >= c {
					return pass("alive at 700 s: GAF %.2f ≥ ECGRID %.2f", f, c)
				}
				return fail("alive at 700 s: GAF %.2f < ECGRID %.2f", f, c)
			},
		},
		{
			ID:        "aen-gap",
			Statement: `"the aen for GRID is ... about 33% and 38% higher than that of ECGRID and GAF" (Fig. 5)`,
			Check: func(e *Env) Verdict {
				gr := e.run(e.base(scenario.GRID, 1, 100, e.lifetimeHorizon()))
				ec := e.run(e.base(scenario.ECGRID, 1, 100, e.lifetimeHorizon()))
				gaf := e.run(e.base(scenario.GAF, 1, 100, e.lifetimeHorizon()))
				at := 500.0
				g, c, f := gr.Collector.Aen.At(at), ec.Collector.Aen.At(at), gaf.Collector.Aen.At(at)
				rc, rf := g/c-1, g/f-1
				if rc > 0.2 && rc < 0.7 && rf > 0.2 && rf < 0.7 {
					return pass("GRID +%.0f%% vs ECGRID, +%.0f%% vs GAF at %g s (paper: +33%%/+38%%)",
						100*rc, 100*rf, at)
				}
				return fail("GRID +%.0f%% vs ECGRID, +%.0f%% vs GAF at %g s", 100*rc, 100*rf, at)
			},
		},
		{
			ID:        "aen-speed-invariant",
			Statement: `"These two Figs. have the similar curves" — aen barely changes between 1 and 10 m/s (Fig. 5)`,
			Check: func(e *Env) Verdict {
				slow := e.run(e.base(scenario.ECGRID, 1, 100, e.lifetimeHorizon()))
				quick := e.run(e.base(scenario.ECGRID, 10, 100, e.lifetimeHorizon()))
				a, b := slow.Collector.Aen.At(500), quick.Collector.Aen.At(500)
				if diff := b/a - 1; diff > -0.15 && diff < 0.15 {
					return pass("ECGRID aen at 500 s: %.3f (1 m/s) vs %.3f (10 m/s)", a, b)
				}
				return fail("ECGRID aen at 500 s: %.3f (1 m/s) vs %.3f (10 m/s)", a, b)
			},
		},
		{
			ID:        "delivery-high",
			Statement: `"the packet delivery rate exceeds 99% for all three protocols" (Fig. 7; see EXPERIMENTS.md for our honest gap)`,
			Check: func(e *Env) Verdict {
				d := 590.0
				if e.Fast {
					d = 300
				}
				g := e.run(e.base(scenario.GRID, 1, 100, d)).DeliveryRate
				c := e.run(e.base(scenario.ECGRID, 1, 100, d)).DeliveryRate
				f := e.run(e.base(scenario.GAF, 1, 100, d)).DeliveryRate
				// Shape check: all high, and ECGRID not materially below
				// the always-on GRID (sleeping costs no delivery).
				if g > 0.75 && c > 0.75 && f > 0.9 && c > g-0.1 {
					return pass("delivery: GRID %.3f, ECGRID %.3f, GAF %.3f", g, c, f)
				}
				return fail("delivery: GRID %.3f, ECGRID %.3f, GAF %.3f", g, c, f)
			},
		},
		{
			ID:        "latency-band",
			Statement: `"all three protocols have a similar average packet delivery latency, between 7.1 ms and 10.7 ms" at 1 m/s (Fig. 6; we compare medians)`,
			Check: func(e *Env) Verdict {
				d := 590.0
				if e.Fast {
					d = 300
				}
				// MedianLatency (not Collector.LatencyPercentile) so the
				// claim still measures on a store hit, where only exported
				// Results fields survive serialization.
				g := e.run(e.base(scenario.GRID, 1, 100, d)).MedianLatency * 1000
				c := e.run(e.base(scenario.ECGRID, 1, 100, d)).MedianLatency * 1000
				f := e.run(e.base(scenario.GAF, 1, 100, d)).MedianLatency * 1000
				if g < 30 && c < 30 && f < 30 && g > 1 && c > 1 && f > 1 {
					return pass("median latency: GRID %.1f ms, ECGRID %.1f ms, GAF %.1f ms", g, c, f)
				}
				return fail("median latency: GRID %.1f ms, ECGRID %.1f ms, GAF %.1f ms", g, c, f)
			},
		},
		{
			ID:        "density-helps-ecgrid",
			Statement: `"The network lifetime of our protocol increases with the host density" (Fig. 8)`,
			Check: func(e *Env) Verdict {
				lo := e.run(e.base(scenario.ECGRID, 1, 50, e.lifetimeHorizon()))
				hi := e.run(e.base(scenario.ECGRID, 1, 200, e.lifetimeHorizon()))
				at := e.lifetimeHorizon() - 10
				a, b := lo.Collector.Alive.At(at), hi.Collector.Alive.At(at)
				if b > a+0.1 {
					return pass("ECGRID alive at %g s: %.2f (n=50) vs %.2f (n=200)", at, a, b)
				}
				return fail("ECGRID alive at %g s: %.2f (n=50) vs %.2f (n=200)", at, a, b)
			},
		},
		{
			ID:        "density-ignores-grid",
			Statement: `"The network lifetime in GRID is observed to be the same for various host densities" (Fig. 8)`,
			Check: func(e *Env) Verdict {
				lo := e.run(e.base(scenario.GRID, 1, 50, e.lifetimeHorizon()))
				hi := e.run(e.base(scenario.GRID, 1, 200, e.lifetimeHorizon()))
				a, b := lo.FirstDeathAt, hi.FirstDeathAt
				if a > 0 && b > 0 && b-a < 50 && a-b < 50 {
					return pass("GRID first death: %.0f s (n=50) vs %.0f s (n=200)", a, b)
				}
				return fail("GRID first death: %.0f s (n=50) vs %.0f s (n=200)", a, b)
			},
		},
		{
			ID:        "span-density-comparison",
			Statement: `"the saved power is proportional to host density [for a location-aware scheme]. On the contrary, Span ... does not benefit from increasing host density" (§1)`,
			Check: func(e *Env) Verdict {
				h := e.lifetimeHorizon()
				at := h - 100
				spLo := e.run(e.base(scenario.SPAN, 1, 50, h)).Collector.Alive.At(at)
				spHi := e.run(e.base(scenario.SPAN, 1, 200, h)).Collector.Alive.At(at)
				ecLo := e.run(e.base(scenario.ECGRID, 1, 50, h)).Collector.Alive.At(at)
				ecHi := e.run(e.base(scenario.ECGRID, 1, 200, h)).Collector.Alive.At(at)
				spanFlat := spHi-spLo < 0.15 && spLo-spHi < 0.15
				ecGrows := ecHi > ecLo+0.15
				if spanFlat && ecGrows {
					return pass("alive at %g s, n=50→200: Span %.2f→%.2f (flat), ECGRID %.2f→%.2f (grows)",
						at, spLo, spHi, ecLo, ecHi)
				}
				return fail("alive at %g s, n=50→200: Span %.2f→%.2f, ECGRID %.2f→%.2f",
					at, spLo, spHi, ecLo, ecHi)
			},
		},
		{
			ID:        "speed-improves-balance",
			Statement: `"a higher roaming speed corresponds to better load balance between hosts" — first deaths come later at 10 m/s (Fig. 8)`,
			Check: func(e *Env) Verdict {
				slow := e.run(e.base(scenario.ECGRID, 1, 200, e.lifetimeHorizon()))
				quick := e.run(e.base(scenario.ECGRID, 10, 200, e.lifetimeHorizon()))
				a, b := slow.Collector.Alive.At(620), quick.Collector.Alive.At(620)
				if b >= a-0.02 {
					return pass("ECGRID n=200 alive at 620 s: %.2f (1 m/s) vs %.2f (10 m/s)", a, b)
				}
				return fail("ECGRID n=200 alive at 620 s: %.2f (1 m/s) vs %.2f (10 m/s)", a, b)
			},
		},
	}
}
