package runner

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ecgrid/internal/faults"
	"ecgrid/internal/scenario"
	"ecgrid/internal/scengen"
	"ecgrid/internal/trace"
)

func mustPreset(name string, hosts int, areaSize, duration float64) *faults.Plan {
	p, err := faults.Preset(name, hosts, areaSize, duration)
	if err != nil {
		panic(err)
	}
	return p
}

// fingerprint runs cfg once and renders everything the run measured —
// every counter, every sampled point (as exact hex floats), and the full
// radio/delivery trace — into one canonical string. Two runs of the same
// scenario in the same process must produce byte-identical fingerprints;
// anything less means some decision depended on map hash order, global
// randomness, or the wall clock.
func fingerprint(cfg scenario.Config) string {
	rec := trace.NewRecorder(1 << 18)
	cfg.Trace = rec
	res := Run(cfg)

	hex := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "cfg=%s\n", cfg.String())
	fmt.Fprintf(&b, "sent=%d delivered=%d dups=%d deaths=%d\n",
		res.Sent, res.Delivered, res.Duplicates, res.Deaths)
	fmt.Fprintf(&b, "rate=%s mean=%s median=%s max=%s\n",
		hex(res.DeliveryRate), hex(res.MeanLatency), hex(res.MedianLatency), hex(res.MaxLatency))
	fmt.Fprintf(&b, "firstdeath=%s lastalive=%s\n", hex(res.FirstDeathAt), hex(res.LastAlive))
	fmt.Fprintf(&b, "faults gwcrash=%d reelect=%d mreelect=%s mrepair=%s in=%s out=%s pagesdropped=%d\n",
		res.GatewayCrashes, res.Reelections,
		hex(res.MeanReelectionLatency), hex(res.MeanRouteRepairTime),
		hex(res.InFaultDeliveryRate), hex(res.OutFaultDeliveryRate), res.PagesDropped)
	fmt.Fprintf(&b, "radio=%+v\n", res.Radio)
	for _, p := range res.Alive {
		fmt.Fprintf(&b, "alive %s %s\n", hex(p.T), hex(p.V))
	}
	for _, p := range res.Aen {
		fmt.Fprintf(&b, "aen %s %s\n", hex(p.T), hex(p.V))
	}
	kinds := make([]string, 0, len(res.PerKind))
	for k := range res.PerKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "kind %s %+v\n", k, res.PerKind[k])
	}
	stats := make([]string, 0, len(res.Protocol))
	for k := range res.Protocol {
		stats = append(stats, k)
	}
	sort.Strings(stats)
	for _, k := range stats {
		fmt.Fprintf(&b, "stat %s %d\n", k, res.Protocol[k])
	}
	fmt.Fprintf(&b, "trace total=%d\n", rec.Total())
	if err := trace.Write(&b, rec.Entries()); err != nil {
		panic(err)
	}
	return b.String()
}

// firstDiff locates the first differing line of two fingerprints, so a
// failure points at the event where the runs diverged instead of dumping
// megabytes of trace.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  run1: %s\n  run2: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// TestRunTwiceDeterminism executes the same scenario twice inside one
// test binary and requires byte-identical metrics and trace output. Map
// iteration order is re-randomized on every range statement, so an
// order-sensitive loop in a hot path fails this test directly — even
// without cmd/simlint in the loop. Run with -count=2 it also catches
// cross-execution divergence via the per-process map hash seed.
func TestRunTwiceDeterminism(t *testing.T) {
	cases := []struct {
		name string
		cfg  scenario.Config
	}{
		{"ecgrid", func() scenario.Config {
			cfg := scenario.Default(scenario.ECGRID)
			cfg.Hosts = 50
			cfg.Duration = 150
			cfg.Seed = 7
			return cfg
		}()},
		{"span", func() scenario.Config {
			cfg := scenario.Default(scenario.SPAN)
			cfg.Hosts = 30
			cfg.Duration = 80
			cfg.Seed = 11
			return cfg
		}()},
		// Faulted runs exercise every injection path — crash/recover,
		// battery shock, jamming, paging loss, GPS noise — under the same
		// byte-identical requirement.
		{"ecgrid-faulted", func() scenario.Config {
			cfg := scenario.Default(scenario.ECGRID)
			cfg.Hosts = 40
			cfg.Duration = 120
			cfg.Seed = 13
			cfg.Faults = mustPreset("mixed", cfg.Hosts, cfg.AreaSize, cfg.Duration)
			return cfg
		}()},
		{"span-faulted", func() scenario.Config {
			cfg := scenario.Default(scenario.SPAN)
			cfg.Hosts = 30
			cfg.Duration = 80
			cfg.Seed = 5
			cfg.Faults = mustPreset("churn", cfg.Hosts, cfg.AreaSize, cfg.Duration)
			return cfg
		}()},
		// Generated scenarios cover every scengen axis: clustered
		// deployment + street mobility + bursty traffic, then group
		// mobility + request/response + an obstacle map. Byte-identical
		// twice is the acceptance bar for the whole generator.
		{"gen-manhattan-burst", func() scenario.Config {
			cfg := scenario.Default(scenario.ECGRID)
			cfg.Hosts = 40
			cfg.Duration = 120
			cfg.Seed = 17
			cfg.Gen = &scengen.Spec{
				Deployment: &scengen.Deployment{Kind: scengen.DeployClustered, Clusters: 4, StdDevM: 120},
				Mobility:   &scengen.Mobility{Kind: scengen.MobilityManhattan, BlockM: 200},
				Traffic:    &scengen.Traffic{Kind: scengen.TrafficOnOff, MeanOnS: 10, MeanOffS: 15},
			}
			return cfg
		}()},
		{"gen-group-reqresp-obstacles", func() scenario.Config {
			cfg := scenario.Default(scenario.ECGRID)
			cfg.Hosts = 40
			cfg.Duration = 120
			cfg.Seed = 19
			cfg.Gen = &scengen.Spec{
				Deployment: &scengen.Deployment{Kind: scengen.DeployGrid, JitterM: 30},
				Mobility:   &scengen.Mobility{Kind: scengen.MobilityGroup, GroupSize: 5, RadiusM: 100},
				Traffic:    &scengen.Traffic{Kind: scengen.TrafficReqResp, RespBytes: 256, RespDelayS: 0.05},
				Propagation: &scengen.Propagation{Obstacles: []scengen.Obstacle{
					{MinX: 450, MinY: 0, MaxX: 480, MaxY: 700, Atten: 0.6},
					{MinX: 100, MinY: 850, MaxX: 900, MaxY: 880, Atten: 1},
				}},
			}
			return cfg
		}()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run1 := fingerprint(c.cfg)
			run2 := fingerprint(c.cfg)
			if run1 != run2 {
				t.Fatalf("same scenario, same process, different outcome — first divergence:\n%s", firstDiff(run1, run2))
			}
		})
	}
}
