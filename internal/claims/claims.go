// Package claims turns the paper's qualitative evaluation claims into
// executable checks: each Claim quotes the paper, declares the
// simulations it needs, and judges their results into a PASS/FAIL
// verdict with the measured numbers. cmd/repro prints the whole
// checklist — the repository's reproduction status as a program rather
// than prose.
package claims

import (
	"context"
	"fmt"

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
	// Needs lists the simulations the claim judges. They depend only on
	// the Env, never on another run's results, so Check can plan every
	// claim's runs up front.
	Needs func(e *Env) []scenario.Config
	// Judge turns the results of Needs, in Needs order, into a verdict.
	Judge func(e *Env, rs []*runner.Results) Verdict
}

// Env fixes what every claim's runs depend on.
type Env struct {
	// Seed roots every simulation.
	Seed int64
	// Fast shrinks horizons (for tests); verdict thresholds are chosen
	// to hold in both modes.
	Fast bool
}

// NewEnv returns an environment for the given seed and horizon mode.
func NewEnv(seed int64, fast bool) *Env {
	return &Env{Seed: seed, Fast: fast}
}

// Check plans the runs every claim needs, runs them all through one
// batch.Run under opt, and judges the claims in order. Claims overlap
// heavily in the simulations they need; batch.Run runs, and reports
// progress for, a shared config once. A claim that needs a failed run
// fails with that run's error as its detail and is not judged.
func Check(ctx context.Context, e *Env, claims []Claim, opt batch.Options) []Verdict {
	var jobs []batch.Job
	ends := make([]int, len(claims)) // claim i's jobs end at ends[i]
	for i, c := range claims {
		for _, cfg := range c.Needs(e) {
			jobs = append(jobs, batch.Job{Tag: fmt.Sprintf("%v dur=%v", cfg, cfg.Duration), Cfg: cfg})
		}
		ends[i] = len(jobs)
	}
	// The summary is not needed: each result carries its own error, and
	// judge fails only the claims that need a failed run.
	results, _ := batch.Run(ctx, jobs, opt)

	verdicts := make([]Verdict, len(claims))
	start := 0
	for i, c := range claims {
		verdicts[i] = judge(e, c, results[start:ends[i]])
		start = ends[i]
	}
	return verdicts
}

// judge hands c the results of the runs it needs, or fails it with the
// first failed run's error.
func judge(e *Env, c Claim, results []batch.Result) Verdict {
	rs := make([]*runner.Results, len(results))
	for n, r := range results {
		if r.Err != nil {
			return fail("run %s failed: %v", r.Tag, r.Err)
		}
		rs[n] = r.Res
	}
	return c.Judge(e, rs)
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

// life is base over the lifetime horizon.
func (e *Env) life(p scenario.ProtocolKind, speed float64, hosts int) scenario.Config {
	return e.base(p, speed, hosts, e.lifetimeHorizon())
}

// trafficHorizon is the delivery and latency claims' horizon.
func (e *Env) trafficHorizon() float64 {
	if e.Fast {
		return 300
	}
	return 590
}

// threeLifetimes is GRID, ECGRID and GAF at 1 m/s and 100 hosts over
// the lifetime horizon (Figs 4 and 5).
func threeLifetimes(e *Env) []scenario.Config {
	return []scenario.Config{
		e.life(scenario.GRID, 1, 100), e.life(scenario.ECGRID, 1, 100), e.life(scenario.GAF, 1, 100),
	}
}

// threeTraffic is GRID, ECGRID and GAF at 1 m/s and 100 hosts over the
// traffic horizon (Figs 6 and 7).
func threeTraffic(e *Env) []scenario.Config {
	d := e.trafficHorizon()
	return []scenario.Config{
		e.base(scenario.GRID, 1, 100, d), e.base(scenario.ECGRID, 1, 100, d), e.base(scenario.GAF, 1, 100, d),
	}
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
			Needs: func(e *Env) []scenario.Config {
				return []scenario.Config{e.life(scenario.GRID, 1, 100)}
			},
			Judge: func(e *Env, rs []*runner.Results) Verdict {
				first := rs[0].FirstDeathAt
				at650 := rs[0].Collector.Alive.At(650)
				if first >= 450 && first <= 600 && at650 <= 0.05 {
					return pass("first death %.0f s, %.0f%% alive at 650 s", first, 100*at650)
				}
				return fail("first death %.0f s, %.0f%% alive at 650 s", first, 100*at650)
			},
		},
		{
			ID:        "ecgrid-extends-lifetime",
			Statement: `"Both ECGRID and GAF prolong the network lifetime" (Fig. 4)`,
			Needs:     threeLifetimes,
			Judge: func(e *Env, rs []*runner.Results) Verdict {
				g, c, f := rs[0].Collector.Alive.At(650), rs[1].Collector.Alive.At(650), rs[2].Collector.Alive.At(650)
				if c > g+0.3 && f > g+0.3 {
					return pass("alive at 650 s: GRID %.2f, ECGRID %.2f, GAF %.2f", g, c, f)
				}
				return fail("alive at 650 s: GRID %.2f, ECGRID %.2f, GAF %.2f", g, c, f)
			},
		},
		{
			ID:        "gaf-slightly-above-ecgrid",
			Statement: `"GAF is more energy-conserving than ECGRID ... 85% and 81% of hosts are alive for GAF and ECGRID" at 1 m/s (Fig. 4a)`,
			Needs: func(e *Env) []scenario.Config {
				return []scenario.Config{e.life(scenario.ECGRID, 1, 100), e.life(scenario.GAF, 1, 100)}
			},
			Judge: func(e *Env, rs []*runner.Results) Verdict {
				c, f := rs[0].Collector.Alive.At(700), rs[1].Collector.Alive.At(700)
				if f >= c {
					return pass("alive at 700 s: GAF %.2f ≥ ECGRID %.2f", f, c)
				}
				return fail("alive at 700 s: GAF %.2f < ECGRID %.2f", f, c)
			},
		},
		{
			ID:        "aen-gap",
			Statement: `"the aen for GRID is ... about 33% and 38% higher than that of ECGRID and GAF" (Fig. 5)`,
			Needs:     threeLifetimes,
			Judge: func(e *Env, rs []*runner.Results) Verdict {
				at := 500.0
				g, c, f := rs[0].Collector.Aen.At(at), rs[1].Collector.Aen.At(at), rs[2].Collector.Aen.At(at)
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
			Needs: func(e *Env) []scenario.Config {
				return []scenario.Config{e.life(scenario.ECGRID, 1, 100), e.life(scenario.ECGRID, 10, 100)}
			},
			Judge: func(e *Env, rs []*runner.Results) Verdict {
				a, b := rs[0].Collector.Aen.At(500), rs[1].Collector.Aen.At(500)
				if diff := b/a - 1; diff > -0.15 && diff < 0.15 {
					return pass("ECGRID aen at 500 s: %.3f (1 m/s) vs %.3f (10 m/s)", a, b)
				}
				return fail("ECGRID aen at 500 s: %.3f (1 m/s) vs %.3f (10 m/s)", a, b)
			},
		},
		{
			ID:        "delivery-high",
			Statement: `"the packet delivery rate exceeds 99% for all three protocols" (Fig. 7; see EXPERIMENTS.md for our honest gap)`,
			Needs:     threeTraffic,
			Judge: func(e *Env, rs []*runner.Results) Verdict {
				g, c, f := rs[0].DeliveryRate, rs[1].DeliveryRate, rs[2].DeliveryRate
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
			Needs:     threeTraffic,
			Judge: func(e *Env, rs []*runner.Results) Verdict {
				// MedianLatency (not Collector.LatencyPercentile) so the
				// claim still measures on a store hit, where only exported
				// Results fields survive serialization.
				g, c, f := rs[0].MedianLatency*1000, rs[1].MedianLatency*1000, rs[2].MedianLatency*1000
				if g < 30 && c < 30 && f < 30 && g > 1 && c > 1 && f > 1 {
					return pass("median latency: GRID %.1f ms, ECGRID %.1f ms, GAF %.1f ms", g, c, f)
				}
				return fail("median latency: GRID %.1f ms, ECGRID %.1f ms, GAF %.1f ms", g, c, f)
			},
		},
		{
			ID:        "density-helps-ecgrid",
			Statement: `"The network lifetime of our protocol increases with the host density" (Fig. 8)`,
			Needs: func(e *Env) []scenario.Config {
				return []scenario.Config{e.life(scenario.ECGRID, 1, 50), e.life(scenario.ECGRID, 1, 200)}
			},
			Judge: func(e *Env, rs []*runner.Results) Verdict {
				at := e.lifetimeHorizon() - 10
				a, b := rs[0].Collector.Alive.At(at), rs[1].Collector.Alive.At(at)
				if b > a+0.1 {
					return pass("ECGRID alive at %g s: %.2f (n=50) vs %.2f (n=200)", at, a, b)
				}
				return fail("ECGRID alive at %g s: %.2f (n=50) vs %.2f (n=200)", at, a, b)
			},
		},
		{
			ID:        "density-ignores-grid",
			Statement: `"The network lifetime in GRID is observed to be the same for various host densities" (Fig. 8)`,
			Needs: func(e *Env) []scenario.Config {
				return []scenario.Config{e.life(scenario.GRID, 1, 50), e.life(scenario.GRID, 1, 200)}
			},
			Judge: func(e *Env, rs []*runner.Results) Verdict {
				a, b := rs[0].FirstDeathAt, rs[1].FirstDeathAt
				if a > 0 && b > 0 && b-a < 50 && a-b < 50 {
					return pass("GRID first death: %.0f s (n=50) vs %.0f s (n=200)", a, b)
				}
				return fail("GRID first death: %.0f s (n=50) vs %.0f s (n=200)", a, b)
			},
		},
		{
			ID:        "span-density-comparison",
			Statement: `"the saved power is proportional to host density [for a location-aware scheme]. On the contrary, Span ... does not benefit from increasing host density" (§1)`,
			Needs: func(e *Env) []scenario.Config {
				return []scenario.Config{
					e.life(scenario.SPAN, 1, 50), e.life(scenario.SPAN, 1, 200),
					e.life(scenario.ECGRID, 1, 50), e.life(scenario.ECGRID, 1, 200),
				}
			},
			Judge: func(e *Env, rs []*runner.Results) Verdict {
				at := e.lifetimeHorizon() - 100
				spLo, spHi := rs[0].Collector.Alive.At(at), rs[1].Collector.Alive.At(at)
				ecLo, ecHi := rs[2].Collector.Alive.At(at), rs[3].Collector.Alive.At(at)
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
			Needs: func(e *Env) []scenario.Config {
				return []scenario.Config{e.life(scenario.ECGRID, 1, 200), e.life(scenario.ECGRID, 10, 200)}
			},
			Judge: func(e *Env, rs []*runner.Results) Verdict {
				a, b := rs[0].Collector.Alive.At(620), rs[1].Collector.Alive.At(620)
				if b >= a-0.02 {
					return pass("ECGRID n=200 alive at 620 s: %.2f (1 m/s) vs %.2f (10 m/s)", a, b)
				}
				return fail("ECGRID n=200 alive at 620 s: %.2f (1 m/s) vs %.2f (10 m/s)", a, b)
			},
		},
	}
}
