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

// TestReceiverScanWorkBounded is a receiver-scan work gate. It bounds,
// per transmitted frame, the stations the scan examined
// (RxCacheStats.Candidates) and the positions it read live
// (RxCacheStats.LiveReads), each at 10% above the value measured when
// the gate was set. A scan that examines every attached station instead
// of the spatial index's neighbourhood multiplies candidates per frame;
// one that stops settling candidates from position snapshots reads
// nearly every candidate live. For scale: under BruteForce every frame
// examines the whole station table, 200 per frame.
func TestReceiverScanWorkBounded(t *testing.T) {
	for _, tc := range []struct {
		proto scenario.ProtocolKind
		// Measured candidates and live reads per frame.
		candidates, liveReads float64
	}{
		{scenario.ECGRID, 66.46, 0.0474},
		{scenario.GRID, 66.63, 0.1296},
	} {
		t.Run(string(tc.proto), func(t *testing.T) {
			r := Run(workGateConfig(tc.proto))
			checkPerFrame(t, "candidates", r, r.RxCache.Candidates, tc.candidates)
			checkPerFrame(t, "live reads", r, r.RxCache.LiveReads, tc.liveReads)
		})
	}
}

// checkPerFrame fails t when run r's receiver scans counted more than
// 10% above measured of what per frame sent.
func checkPerFrame(t *testing.T, what string, r *Results, n uint64, measured float64) {
	t.Helper()
	frames := r.Radio.FramesSent
	if frames == 0 {
		t.Fatalf("%s: no frames sent: the gate measured nothing", what)
	}
	perFrame := float64(n) / float64(frames)
	t.Logf("%s: %.4f per frame (%d / %d)", what, perFrame, n, frames)
	if limit := 1.1 * measured; perFrame > limit {
		t.Errorf("%s: receiver scans counted %.4f per frame (%d over %d frames), want at most %.4f (measured %.4f, +10%%)",
			what, perFrame, n, frames, limit, measured)
	}
}
