package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ecgrid/internal/experiment"
	"ecgrid/internal/runner"
	"ecgrid/internal/scenario"
)

// workload is one named input set. body runs it once in a child, calling
// env.measure exactly once around the part users wait for, and records
// every simulation it ran through env.addRun; setup performs one set-up.
type workload struct {
	name  string
	body  func(e *env) error
	setup func(e *env) (time.Duration, error)
}

// workloads lists the benchmark's workloads in round order. README.md
// gives the reason for each.
var workloads = []workload{
	{"fig8a", fig8aBody, fig8aSetup},
	{"duty-cycle", dutyBody, dutySetup},
	{"soak-10k", soakBody, soakSetup},
	{"simd-mixed", simdBody, simdSetup},
}

// toy is a seconds-long workload for the benchmark's own smoke test.
var toy = workload{"toy", toyBody, toySetup}

func workloadByName(name string) (workload, bool) {
	if name == toy.name {
		return toy, true
	}
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupDuration is the Duration a set-up run simulates: hosts are placed
// and protocols started, and no traffic flows yet.
const setupDuration = 0.001

// timeRun times one runner.Run of cfg.
func timeRun(cfg scenario.Config) (time.Duration, error) {
	t0 := time.Now()
	_, err := safeRun(cfg)
	return time.Since(t0), err
}

// runLabel names a run in fingerprints: stable across changes to the
// config's String form.
func runLabel(cfg scenario.Config) string {
	return fmt.Sprintf("%s n=%d seed=%d", cfg.Protocol, cfg.Hosts, cfg.Seed)
}

// runAll times the configs run one after another, then records them.
func runAll(e *env, cfgs []scenario.Config) error {
	res := make([]*runner.Results, len(cfgs))
	errs := make([]error, len(cfgs))
	if err := e.measure(func() {
		for i, c := range cfgs {
			res[i], errs[i] = safeRun(c)
		}
	}); err != nil {
		return err
	}
	for i, c := range cfgs {
		e.addRun(runLabel(c), res[i], errs[i])
	}
	return nil
}

// --- fig8a: the paper's densest figure, through the experiment harness.

// recordingStore is a batch.ResultStore that never hits and keeps every
// result put into it: the experiment harness's public way to hand back
// the runner.Results behind a figure.
type recordingStore struct {
	mu   sync.Mutex
	gets int
	res  []*runner.Results
}

func (s *recordingStore) Get(string) (*runner.Results, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	return nil, false, nil
}

func (s *recordingStore) Put(_ string, r *runner.Results) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.res = append(s.res, r)
	return nil
}

func fig8aBody(e *env) error {
	rec := &recordingStore{}
	var runErr error
	if err := e.measure(func() {
		_, runErr = experiment.Run(experiment.Fig8a, experiment.Options{
			Fast: true, Workers: 1, Seed: e.seed, Store: rec,
		})
	}); err != nil {
		return err
	}
	sort.Slice(rec.res, func(i, j int) bool { return runLabel(rec.res[i].Cfg) < runLabel(rec.res[j].Cfg) })
	for _, r := range rec.res {
		e.addRun(runLabel(r.Cfg), r, nil)
	}
	// Jobs that failed were asked for (Get) but never stored (Put).
	if missing := rec.gets - len(rec.res); missing > 0 {
		e.rep.Attempted += missing
		e.rep.Failed += missing
		e.rep.Failures = append(e.rep.Failures, fmt.Sprintf("fig8a: %d runs failed: %v", missing, runErr))
	}
	return nil
}

// fig8aSetup sets up the figure's largest config: ECGRID, 200 hosts, 1 m/s.
func fig8aSetup(e *env) (time.Duration, error) {
	cfg := scenario.Default(scenario.ECGRID)
	cfg.Hosts = 200
	cfg.MaxSpeedMS = 1
	cfg.Seed = e.seed
	cfg.Duration = setupDuration
	return timeRun(cfg)
}

// --- duty-cycle: the sleep-scheduling baselines at the paper's defaults.

func dutyConfigs(seed int64) []scenario.Config {
	var cfgs []scenario.Config
	for _, p := range []scenario.ProtocolKind{scenario.SPAN, scenario.GAF, scenario.AODV} {
		for _, s := range []int64{seed, seed + 1} {
			c := scenario.Default(p)
			c.Seed = s
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

func dutyBody(e *env) error { return runAll(e, dutyConfigs(e.seed)) }

// dutySetup sets up the workload's largest config, SPAN at 100 hosts.
func dutySetup(e *env) (time.Duration, error) {
	cfg := dutyConfigs(e.seed)[0]
	cfg.Duration = setupDuration
	return timeRun(cfg)
}

// --- soak-10k: the committed 10k-host dense Manhattan scenario.

func soakConfig(e *env) (scenario.Config, error) {
	cfg, err := scenario.Load(filepath.Join(e.root, "scenarios", "dense-manhattan-10k.json"))
	if err != nil {
		return cfg, err
	}
	cfg.Seed = e.seed
	return cfg, nil
}

func soakBody(e *env) error {
	cfg, err := soakConfig(e)
	if err != nil {
		return err
	}
	return runAll(e, []scenario.Config{cfg})
}

// soakSetup loads the scenario file and sets it up.
func soakSetup(e *env) (time.Duration, error) {
	t0 := time.Now()
	cfg, err := soakConfig(e)
	if err != nil {
		return 0, err
	}
	cfg.Duration = setupDuration
	_, err = safeRun(cfg)
	return time.Since(t0), err
}

// --- toy: 20 hosts for 30 s, small enough for a unit test.

func toyConfig(seed int64) scenario.Config {
	c := scenario.Default(scenario.ECGRID)
	c.Hosts = 20
	c.Duration = 30
	c.Seed = seed
	return c
}

func toyBody(e *env) error { return runAll(e, []scenario.Config{toyConfig(e.seed)}) }

func toySetup(e *env) (time.Duration, error) {
	cfg := toyConfig(e.seed)
	cfg.Duration = setupDuration
	return timeRun(cfg)
}
