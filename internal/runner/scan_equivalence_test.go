package runner

import (
	"fmt"
	"testing"

	"ecgrid/internal/faults"
	"ecgrid/internal/scenario"
	"ecgrid/internal/scengen"
)

// TestRxCacheEquivalence holds the indexed receiver scan, whose
// candidates are mostly settled from its receiver cache (the per-host
// position snapshots), to the BruteForce reference on the populations that stress the snapshots
// most: the duty-cycled SPAN and GAF (most stations asleep, so few
// snapshots are refreshed by their own sends) at three sizes, and a
// gateway crash (detach and re-attach of an ID, a recovery re-insert)
// combined with a jamming window (the Interceptor takes live receiver
// positions even where a snapshot settled the range check).
func TestRxCacheEquivalence(t *testing.T) {
	type variant struct {
		proto scenario.ProtocolKind
		hosts int
		fault bool
	}
	variants := []variant{
		{scenario.ECGRID, 20, false},
		{scenario.ECGRID, 200, false},
		{scenario.ECGRID, 1000, false},
		{scenario.SPAN, 20, false},
		{scenario.SPAN, 200, false},
		{scenario.SPAN, 1000, false},
		{scenario.GAF, 20, false},
		{scenario.GAF, 200, false},
		{scenario.GAF, 1000, false},
		{scenario.ECGRID, 200, true},
		{scenario.GAF, 200, true},
	}
	for _, v := range variants {
		name := fmt.Sprintf("%s-n%d", v.proto, v.hosts)
		if v.fault {
			name += "-crash+jam"
		}
		t.Run(name, func(t *testing.T) {
			cfg := scenario.Default(v.proto)
			cfg.Hosts = v.hosts
			cfg.Seed = int64(53 + v.hosts)
			switch {
			case v.hosts >= 1000:
				// Paper-like density at 1000 hosts needs a 3000 m side;
				// a short span keeps the O(n²) reference affordable.
				cfg.AreaSize = 3000
				cfg.Duration = 8
				cfg.Flows = 30
			case v.hosts >= 200:
				cfg.Duration = 45
			default:
				cfg.Duration = 90
			}
			if v.fault {
				cfg.Faults = crashPlusJam(cfg.Hosts, cfg.AreaSize, cfg.Duration)
			}
			ref := cfg
			ref.Radio.BruteForce = true
			indexed := fingerprint(cfg)
			brute := fingerprint(ref)
			if indexed != brute {
				t.Fatalf("snapshot scan diverged from brute-force reference — first divergence:\n%s",
					firstDiff(indexed, brute))
			}
		})
	}
}

// crashPlusJam composes the gateway-crash and jam-center presets into
// one adversarial plan: membership churn and the Interceptor running in
// one schedule.
func crashPlusJam(hosts int, areaSize, duration float64) *faults.Plan {
	p := mustPreset("gateway-crash", hosts, areaSize, duration)
	p.Jams = mustPreset("jam-center", hosts, areaSize, duration).Jams
	return p
}

// TestRxCacheEquivalenceGenerated repeats the BruteForce check on
// two generated shapes: a dense clustered Manhattan scenario (street
// turns re-bucket hosts, and the obstacle Interceptor takes live
// positions) and a group patrol (whole clusters drifting together, so
// many snapshots age at once while members stay mutually in range).
func TestRxCacheEquivalenceGenerated(t *testing.T) {
	specs := map[string]*scengen.Spec{
		"dense-manhattan": {
			Deployment: &scengen.Deployment{Kind: scengen.DeployClustered, Clusters: 3, StdDevM: 100},
			Mobility:   &scengen.Mobility{Kind: scengen.MobilityManhattan, BlockM: 125},
			Traffic:    &scengen.Traffic{Kind: scengen.TrafficOnOff, MeanOnS: 8, MeanOffS: 6},
			Propagation: &scengen.Propagation{Obstacles: []scengen.Obstacle{
				{MinX: 300, MinY: 200, MaxX: 340, MaxY: 800, Atten: 0.7},
			}},
		},
		"group-patrol": {
			Deployment: &scengen.Deployment{Kind: scengen.DeployClustered, Clusters: 4, StdDevM: 120},
			Mobility:   &scengen.Mobility{Kind: scengen.MobilityGroup, GroupSize: 6, RadiusM: 80},
			Traffic:    &scengen.Traffic{Kind: scengen.TrafficReqResp, RespBytes: 256, RespDelayS: 0.2},
		},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			cfg := scenario.Default(scenario.ECGRID)
			cfg.Hosts = 60
			cfg.Duration = 60
			cfg.Seed = 59
			cfg.Gen = spec
			ref := cfg
			ref.Radio.BruteForce = true
			indexed := fingerprint(cfg)
			brute := fingerprint(ref)
			if indexed != brute {
				t.Fatalf("snapshot scan diverged on a generated scenario — first divergence:\n%s",
					firstDiff(indexed, brute))
			}
		})
	}
}
