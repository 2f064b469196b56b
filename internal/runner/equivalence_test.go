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
