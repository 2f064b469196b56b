package runner

import (
	"runtime"
	"testing"

	"ecgrid/internal/scenario"
)

// The work gates hold the Fig 8(a) hot path to deterministic counts on
// the paper's default setup at its densest point: 200 hosts, 100 s,
// seed 1, for ECGRID and for GRID. A run's counts are exact for a seed,
// so the gates need no timing tolerance; a lost fast path shows up as a
// count, not as a slower clock. Neither gate runs in parallel with other
// tests: the allocation gate reads process-wide counters.

// workGateConfig is the gates' fixed setup for one protocol.
func workGateConfig(p scenario.ProtocolKind) scenario.Config {
	cfg := scenario.Default(p)
	cfg.Hosts = 200
	cfg.Duration = 100
	cfg.Seed = 1
	return cfg
}

// TestRunAllocationsBounded is an allocation gate: after one warm-up
// run, the heap allocations of one run may exceed the count measured
// when the gate was set by at most 10%. The count is exact up to a few
// allocations (map growth, runtime internals) and about 2.4% higher
// under -race, so the slack absorbs both; a pool that stops recycling
// (frames, transmissions, reception buffers) allocates once per frame
// and crosses it.
func TestRunAllocationsBounded(t *testing.T) {
	for _, tc := range []struct {
		proto   scenario.ProtocolKind
		mallocs uint64 // measured on go1.24, amd64
	}{
		{scenario.ECGRID, 44760},
		{scenario.GRID, 55148},
	} {
		t.Run(string(tc.proto), func(t *testing.T) {
			cfg := workGateConfig(tc.proto)
			Run(cfg) // warm-up: package-level caches, runtime pools
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r := Run(cfg)
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(r)
			got := after.Mallocs - before.Mallocs
			t.Logf("%d heap allocations over one run (%d frames sent)", got, r.Radio.FramesSent)
			if limit := tc.mallocs + tc.mallocs/10; got > limit {
				t.Fatalf("one run made %d heap allocations, want at most %d (measured %d, +10%%)",
					got, limit, tc.mallocs)
			}
		})
	}
}

// TestReceiverScanWorkBounded is a receiver-scan work gate: it bounds
// the stations examined per transmitted frame (RxCacheStats.Candidates
// over Counters.FramesSent) on the cached path and on the NoRxCache
// path at 10% above the counts measured when the gate was set, and
// holds the cache hit ratio within 10% below its measured value. A
// disabled cache, or a scan that examines every attached station
// instead of the spatial index's neighbourhood, multiplies candidates
// per frame and fails. For scale: under BruteForce every frame examines
// the whole station table, 200 per frame.
func TestReceiverScanWorkBounded(t *testing.T) {
	for _, tc := range []struct {
		proto scenario.ProtocolKind
		// Measured candidates per frame, cached and NoRxCache, and the
		// measured cache hit ratio.
		cached, uncached, hitRatio float64
	}{
		{scenario.ECGRID, 7.50, 66.46, 0.903},
		{scenario.GRID, 7.78, 66.63, 0.901},
	} {
		t.Run(string(tc.proto), func(t *testing.T) {
			cfg := workGateConfig(tc.proto)
			r := Run(cfg)
			rx := r.RxCache
			hitRatio := float64(rx.Hits) / float64(rx.Hits+rx.Misses)
			checkCandidatesPerFrame(t, "cached", r, tc.cached)
			if limit := 0.9 * tc.hitRatio; !(hitRatio >= limit) {
				t.Errorf("receiver cache hit ratio %.3f (%d hits, %d misses), want at least %.3f (measured %.3f, -10%%)",
					hitRatio, rx.Hits, rx.Misses, limit, tc.hitRatio)
			}
			cfg.Radio.NoRxCache = true
			checkCandidatesPerFrame(t, "NoRxCache", Run(cfg), tc.uncached)
		})
	}
}

// checkCandidatesPerFrame fails t when run r's receiver scans examined
// more than 10% above measured stations per frame sent.
func checkCandidatesPerFrame(t *testing.T, path string, r *Results, measured float64) {
	t.Helper()
	frames := r.Radio.FramesSent
	if frames == 0 {
		t.Fatalf("%s: no frames sent: the gate measured nothing", path)
	}
	perFrame := float64(r.RxCache.Candidates) / float64(frames)
	t.Logf("%s: %.2f candidates per frame (%d / %d)", path, perFrame, r.RxCache.Candidates, frames)
	if limit := 1.1 * measured; perFrame > limit {
		t.Errorf("%s: receiver scans examined %.2f stations per frame (%d over %d frames), want at most %.2f (measured %.2f, +10%%)",
			path, perFrame, r.RxCache.Candidates, frames, limit, measured)
	}
}
