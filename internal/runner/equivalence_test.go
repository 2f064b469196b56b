package runner

import (
	"fmt"
	"testing"

	"ecgrid/internal/scenario"
	"ecgrid/internal/scengen"
)

// TestSpatialIndexEquivalence proves the radio channel's spatial
// neighbor index is an optimization, not a model change: every scenario
// must produce byte-identical metrics and trace fingerprints with the
// index (the default) and with Radio.BruteForce, which scans the full
// population exactly as the seed implementation did. The matrix covers
// both protocols, a jamming fault plan (the Interceptor path disables
// the Sure-candidate shortcut), a paging-loss plan (grid pages take
// their candidates from the index too, and each DropHook draw must land
// on the same host in the same order as the full sweep's), and sparse
// vs. dense populations — dense is where the index actually prunes,
// sparse is where bucket boundary cases are most visible.
func TestSpatialIndexEquivalence(t *testing.T) {
	type variant struct {
		proto scenario.ProtocolKind
		fault string
	}
	variants := []variant{
		{scenario.ECGRID, ""},
		{scenario.SPAN, ""},
		{scenario.ECGRID, "jam-center"},
		{scenario.ECGRID, "lossy-ras"},
	}
	for _, v := range variants {
		for _, hosts := range []int{20, 200} {
			name := fmt.Sprintf("%s-n%d", v.proto, hosts)
			if v.fault != "" {
				name = fmt.Sprintf("%s-%s-n%d", v.proto, v.fault, hosts)
			}
			t.Run(name, func(t *testing.T) {
				cfg := scenario.Default(v.proto)
				cfg.Hosts = hosts
				cfg.Duration = 90
				if hosts >= 200 {
					cfg.Duration = 45 // dense runs are slow; keep CI snappy
				}
				cfg.Seed = int64(17 + hosts)
				if v.fault != "" {
					cfg.Faults = mustPreset(v.fault, cfg.Hosts, cfg.AreaSize, cfg.Duration)
				}
				ref := cfg
				ref.Radio.BruteForce = true

				indexed := fingerprint(cfg)
				brute := fingerprint(ref)
				if indexed != brute {
					t.Fatalf("spatial index diverged from brute-force reference — first divergence:\n%s",
						firstDiff(indexed, brute))
				}
			})
		}
	}
}

// TestSpatialIndexEquivalenceGenerated repeats the brute-force check on
// generated (non-figure) scenarios: clustered placement concentrates
// hosts per bucket, street mobility re-buckets on every intersection
// turn, and the obstacle interceptor forces the no-shortcut reception
// path — the combination most likely to expose an index divergence. The
// 1000-host case is the dense-manhattan soak's shape, where grid pages
// are frequent and the index prunes most of each page's population.
func TestSpatialIndexEquivalenceGenerated(t *testing.T) {
	small := scenario.Default(scenario.ECGRID)
	small.Hosts = 60
	small.Duration = 60
	small.Seed = 23
	small.Gen = &scengen.Spec{
		Deployment: &scengen.Deployment{Kind: scengen.DeployClustered, Clusters: 3, StdDevM: 100},
		Mobility:   &scengen.Mobility{Kind: scengen.MobilityManhattan, BlockM: 125},
		Traffic:    &scengen.Traffic{Kind: scengen.TrafficOnOff, MeanOnS: 8, MeanOffS: 6},
		Propagation: &scengen.Propagation{Obstacles: []scengen.Obstacle{
			{MinX: 300, MinY: 200, MaxX: 340, MaxY: 800, Atten: 0.7},
		}},
	}
	for name, cfg := range map[string]scenario.Config{
		"clustered-n60":         small,
		"dense-manhattan-n1000": denseManhattan1000(),
	} {
		t.Run(name, func(t *testing.T) {
			ref := cfg
			ref.Radio.BruteForce = true
			indexed := fingerprint(cfg)
			brute := fingerprint(ref)
			if indexed != brute {
				t.Fatalf("spatial index diverged on a generated scenario — first divergence:\n%s",
					firstDiff(indexed, brute))
			}
		})
	}
}

// denseManhattan1000 is scenarios/dense-manhattan-10k.json at a tenth of
// the hosts on a tenth of the area (side 5000/√10 ≈ 1580 m): the same
// density, the same street mobility and bursty traffic, and the cluster
// count and obstacles scaled with the area.
func denseManhattan1000() scenario.Config {
	cfg := scenario.Default(scenario.ECGRID)
	cfg.Hosts = 1000
	cfg.AreaSize = 1580
	cfg.MaxSpeedMS = 10
	cfg.Duration = 10
	cfg.Flows = 20
	cfg.TrafficStart = 2
	cfg.SampleEvery = 5
	cfg.Gen = &scengen.Spec{
		Deployment: &scengen.Deployment{Kind: scengen.DeployClustered, Clusters: 5, StdDevM: 142},
		Mobility:   &scengen.Mobility{Kind: scengen.MobilityManhattan, BlockM: 250},
		Traffic:    &scengen.Traffic{Kind: scengen.TrafficOnOff, MeanOnS: 4, MeanOffS: 6},
		Propagation: &scengen.Propagation{Obstacles: []scengen.Obstacle{
			{MinX: 695, MinY: 0, MaxX: 727, MaxY: 1106, Atten: 0.6},
			{MinX: 0, MinY: 1296, MaxX: 1264, MaxY: 1328, Atten: 1},
		}},
	}
	return cfg
}

// TestShardEquivalence proves the sharded parallel engine is an
// optimization, not a model change: every scenario must produce
// byte-identical metrics and trace fingerprints at -shards 1 (the
// serial reference, run verbatim) and every -shards K — the same
// contract Radio.BruteForce is held to. The matrix
// spans three protocols, three population sizes (the 1000-host case on
// a proportionally larger area so density stays paper-like), and shard
// counts that divide the grid unevenly (7 strips over 10 or 30
// columns); a faulted variant exercises the injector, crash/recovery,
// and paging-loss draws under sharding.
func TestShardEquivalence(t *testing.T) {
	type variant struct {
		proto scenario.ProtocolKind
		hosts int
		fault string
	}
	variants := []variant{
		{scenario.ECGRID, 20, ""},
		{scenario.ECGRID, 200, ""},
		{scenario.ECGRID, 1000, ""},
		{scenario.SPAN, 20, ""},
		{scenario.SPAN, 200, ""},
		{scenario.SPAN, 1000, ""},
		{scenario.GRID, 20, ""},
		{scenario.GRID, 200, ""},
		{scenario.GRID, 1000, ""},
		{scenario.ECGRID, 200, "mixed"},
	}
	for _, v := range variants {
		name := fmt.Sprintf("%s-n%d", v.proto, v.hosts)
		if v.fault != "" {
			name += "-" + v.fault
		}
		t.Run(name, func(t *testing.T) {
			cfg := scenario.Default(v.proto)
			cfg.Hosts = v.hosts
			cfg.Seed = int64(31 + v.hosts)
			switch {
			case v.hosts >= 1000:
				// Paper-like density at 1000 hosts needs a 3000 m side
				// (30 grid columns, so 7 strips still fit); keep the
				// simulated span short — the point is coverage of the
				// windowed loop, not a long campaign.
				cfg.AreaSize = 3000
				cfg.Duration = 8
				cfg.Flows = 30
			case v.hosts >= 200:
				cfg.Duration = 45
			default:
				cfg.Duration = 90
			}
			if v.fault != "" {
				cfg.Faults = mustPreset(v.fault, cfg.Hosts, cfg.AreaSize, cfg.Duration)
			}
			ref := cfg
			ref.Shards = 1 // the serial path, verbatim
			serial := fingerprint(ref)
			for _, k := range []int{2, 4, 7} {
				sharded := cfg
				sharded.Shards = k
				if got := fingerprint(sharded); got != serial {
					t.Fatalf("-shards %d diverged from the serial reference — first divergence:\n%s",
						k, firstDiff(got, serial))
				}
			}
		})
	}
}

// TestShardEquivalenceGenerated repeats the shard check on a generated
// scenario chosen to stress the plan: clustered deployment concentrates
// whole strips, group mobility forces pinned co-ownership (the shared
// reference point must never gain a second writer), and request/response
// traffic plus an obstacle map run every optional hook under sharding.
func TestShardEquivalenceGenerated(t *testing.T) {
	cfg := scenario.Default(scenario.ECGRID)
	cfg.Hosts = 60
	cfg.Duration = 60
	cfg.Seed = 41
	cfg.Gen = &scengen.Spec{
		Deployment: &scengen.Deployment{Kind: scengen.DeployClustered, Clusters: 3, StdDevM: 100},
		Mobility:   &scengen.Mobility{Kind: scengen.MobilityGroup, GroupSize: 6, RadiusM: 80},
		Traffic:    &scengen.Traffic{Kind: scengen.TrafficReqResp, RespBytes: 256, RespDelayS: 0.2},
		Propagation: &scengen.Propagation{Obstacles: []scengen.Obstacle{
			{MinX: 300, MinY: 200, MaxX: 340, MaxY: 800, Atten: 0.7},
		}},
	}
	ref := cfg
	ref.Shards = 1
	serial := fingerprint(ref)
	for _, k := range []int{2, 4, 7} {
		sharded := cfg
		sharded.Shards = k
		if got := fingerprint(sharded); got != serial {
			t.Fatalf("-shards %d diverged on a generated scenario — first divergence:\n%s",
				k, firstDiff(got, serial))
		}
	}
}
