package runner_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ecgrid/internal/batch"
	"ecgrid/internal/faults"
	"ecgrid/internal/protocols/gaf"
	"ecgrid/internal/runner"
	"ecgrid/internal/scenario"
	"ecgrid/internal/scengen"
)

// TestHostRoutingFingerprintsPinned pins the complete outcome of the
// three host-by-host AODV protocols (GAF, plain AODV and Span) across
// commits, not just across two runs in one process as
// TestRunTwiceDeterminism does. Each hash covers every counter, sampled
// point and trace line of the run. A refactor of the shared routing
// layer must leave every hash unchanged; a deliberate behaviour change
// must update them and say so.
func TestHostRoutingFingerprintsPinned(t *testing.T) {
	churn := func(cfg scenario.Config) *faults.Plan {
		p, err := faults.Preset("churn", cfg.Hosts, cfg.AreaSize, cfg.Duration)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	small := func(p scenario.ProtocolKind, hosts int, duration float64, seed int64) scenario.Config {
		cfg := scenario.Default(p)
		cfg.Hosts = hosts
		cfg.Duration = duration
		cfg.Seed = seed
		return cfg
	}
	fast := func(cfg scenario.Config) scenario.Config { cfg.MaxSpeedMS = 10; return cfg }
	gafChurn := small(scenario.GAF, 30, 80, 5)
	gafChurn.Faults = churn(gafChurn)
	spanChurn := small(scenario.SPAN, 30, 80, 5)
	spanChurn.Faults = churn(spanChurn)
	cases := []struct {
		name string
		cfg  scenario.Config
		want string
	}{
		{"gaf-model1", small(scenario.GAF, 60, 200, 3), "d446278a32e68a707942006ea1b7a17f06ad3c9685c02e8d3a65e0f030605ea1"},
		{"aodv", fast(small(scenario.AODV, 50, 150, 7)), "2fc5ed8e8c5fba1f3c88b32e258143407ecf07be07c1dabc0e90c05b83a890b9"},
		{"span", fast(small(scenario.SPAN, 50, 150, 11)), "555ff3d3f5de4291aa258238da985ddb516cfe44049dbfd6aadf04aef8a5a364"},
		{"span-churn", spanChurn, "65808edf717df53d82cea0e1123bc27e94d2fb42c99234d61035411e49306f0c"},
		{"gaf-churn", gafChurn, "a9ee1b48da70d943588aebf8dfd9f71e65b3da30878f307038faba9e449bbee5"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sum := sha256.Sum256([]byte(runner.Fingerprint(c.cfg)))
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("fingerprint hash = %s, want %s", got, c.want)
			}
		})
	}

	t.Run("gaf-options-key", func(t *testing.T) {
		cfg := small(scenario.GAF, 40, 120, 3)
		opt := gaf.DefaultOptions()
		opt.TaMax = 30
		opt.RouteTTL = 20
		opt.DiscoveryRetries = 4
		cfg.GAFOptions = &opt
		const want = "7b91b2bc626dbc12378fdda2d72b8145989a1cd5bd792832fc6def4718226014"
		if got := batch.Key(cfg); got != want {
			t.Errorf("batch.Key = %s, want %s", got, want)
		}
	})
}

// TestCoreFingerprintsPinned pins the grid protocols the same way
// TestHostRoutingFingerprintsPinned pins the host-by-host ones. Every
// counter, energy sample and trace line is a function of event order, so
// any change to the event queue, the mobility models or the RAS paging
// path that reorders a single event changes these hashes. The cases
// cover the dense ECGRID run, a GRID run at the paper's smallest
// population, and a generated clustered Manhattan scenario whose
// timers pile up on shared instants.
func TestCoreFingerprintsPinned(t *testing.T) {
	small := func(p scenario.ProtocolKind, hosts int, duration float64, seed int64) scenario.Config {
		cfg := scenario.Default(p)
		cfg.Hosts = hosts
		cfg.Duration = duration
		cfg.Seed = seed
		return cfg
	}
	// A clustered Manhattan street scenario at the density of
	// scenarios/dense-manhattan-10k.json: 500 hosts on 1117 m square.
	clustered := small(scenario.ECGRID, 500, 4, 3)
	clustered.AreaSize = 1117
	clustered.MaxSpeedMS = 10
	clustered.Flows = 10
	clustered.TrafficStart = 1
	clustered.SampleEvery = 2
	clustered.Gen = &scengen.Spec{
		Deployment: &scengen.Deployment{Kind: scengen.DeployClustered, Clusters: 4, StdDevM: 120},
		Mobility:   &scengen.Mobility{Kind: scengen.MobilityManhattan, BlockM: 250},
		Traffic:    &scengen.Traffic{Kind: scengen.TrafficOnOff, MeanOnS: 2, MeanOffS: 3},
	}
	cases := []struct {
		name string
		cfg  scenario.Config
		want string
	}{
		{"ecgrid-n200", small(scenario.ECGRID, 200, 45, 229), "af67a4282dddab1ec63c5b925ed7564fc6f65a81b23094eb56366c212e6983b8"},
		{"grid-n50", small(scenario.GRID, 50, 300, 79), "8481d0d928854eda9ed003c7d7b2d288f7fce26675b3b728b4c91773ae5302bc"},
		{"clustered-manhattan-n500", clustered, "3399599a6462e8cd466c65e3717d5102345bc387c40ec9d7013b656ca0c76503"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sum := sha256.Sum256([]byte(runner.Fingerprint(c.cfg)))
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("fingerprint hash = %s, want %s", got, c.want)
			}
		})
	}
}
