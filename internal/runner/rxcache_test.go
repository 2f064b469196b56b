package runner

import (
	"fmt"
	"testing"

	"ecgrid/internal/faults"
	"ecgrid/internal/scenario"
	"ecgrid/internal/scengen"
)

// TestRxCacheEquivalence proves the receiver-plane cache is an
// optimization, not a model change: every scenario must produce
// byte-identical metrics and trace fingerprints with the cache (the
// default) and with Radio.NoRxCache, the uncached reference path — the
// same contract Radio.BruteForce is held to. The matrix
// spans the paper protocol and the two duty-cycled baselines (SPAN and
// GAF sleep most stations, churning the listen epochs the cache is
// keyed on) across three population sizes; the
// faulted variant combines a gateway crash (detach/re-attach epochs, a
// recovery re-insert) with a jamming window (the Interceptor path must
// see live receiver positions on cache hits).
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
				// keep the simulated span short — the point is cache
				// churn coverage, not a long campaign.
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
			ref.Radio.NoRxCache = true

			cached := fingerprint(cfg)
			uncached := fingerprint(ref)
			if cached != uncached {
				t.Fatalf("receiver cache diverged from NoRxCache reference — first divergence:\n%s",
					firstDiff(cached, uncached))
			}
		})
	}
}

// crashPlusJam composes the gateway-crash and jam-center presets into
// the adversarial plan ISSUE 10 names: membership churn and the
// Interceptor running in one schedule.
func crashPlusJam(hosts int, areaSize, duration float64) *faults.Plan {
	p := mustPreset("gateway-crash", hosts, areaSize, duration)
	p.Jams = mustPreset("jam-center", hosts, areaSize, duration).Jams
	return p
}

// TestRxCacheEquivalenceGenerated repeats the NoRxCache check on the two
// generated shapes the cache is most stressed by: a dense clustered
// Manhattan scenario (high hit value, street turns re-bucketing through
// covered cells, an obstacle Interceptor on the hit path) and a
// group-patrol scenario (whole clusters drifting together, so covers
// churn in bursts while members stay mutually in range).
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
			ref.Radio.NoRxCache = true
			cached := fingerprint(cfg)
			uncached := fingerprint(ref)
			if cached != uncached {
				t.Fatalf("receiver cache diverged on a generated scenario — first divergence:\n%s",
					firstDiff(cached, uncached))
			}
		})
	}
}
