// Package scenario defines the configuration of one simulation run,
// mirroring the setup of the paper's §4: a 1000×1000 m region, 2 Mbps
// radio with 250 m range, 100 m grid, random-waypoint mobility, CBR
// traffic, and the Feeney energy model with 500 J per host.
package scenario

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"ecgrid/internal/core"
	"ecgrid/internal/faults"
	"ecgrid/internal/protocols/gaf"
	"ecgrid/internal/radio"
	"ecgrid/internal/scengen"
	"ecgrid/internal/trace"
)

// ProtocolKind selects the protocol under test.
type ProtocolKind string

const (
	// ECGRID is the paper's contribution.
	ECGRID ProtocolKind = "ecgrid"
	// GRID is the non-energy-aware baseline.
	GRID ProtocolKind = "grid"
	// GAF is the timer-based sleeping baseline (Model 1: ten
	// infinite-energy endpoints that never sleep or forward).
	GAF ProtocolKind = "gaf"
	// AODV is plain host-by-host AODV with every host always on — the
	// protocol GRID descends from, included as an extension baseline.
	AODV ProtocolKind = "aodv"
	// SPAN is the coordinator-backbone baseline of the paper's §1
	// comparison: topology-elected always-on coordinators plus
	// PSM-style duty cycling for everyone else.
	SPAN ProtocolKind = "span"
)

// Known lists every protocol kind, in the order the paper introduces
// them.
func Known() []ProtocolKind {
	return []ProtocolKind{ECGRID, GRID, GAF, AODV, SPAN}
}

// ParseProtocol resolves a user-supplied protocol name
// (case-insensitive, surrounding space ignored), so CLIs can reject an
// unknown name up front instead of panicking mid-sweep.
func ParseProtocol(s string) (ProtocolKind, error) {
	p := ProtocolKind(strings.ToLower(strings.TrimSpace(s)))
	for _, k := range Known() {
		if p == k {
			return k, nil
		}
	}
	return "", fmt.Errorf("scenario: unknown protocol %q (known: %v)", s, Known())
}

// Config describes one run.
type Config struct {
	Protocol ProtocolKind
	// Hosts is the number of energy-limited hosts (the paper varies
	// 50–200). Under GAF, EndpointHosts infinite-energy hosts are
	// added on top (Model 1).
	Hosts         int
	EndpointHosts int
	// AreaSize is the square region's side in meters.
	AreaSize float64
	// GridSize is the logical cell side d in meters.
	GridSize float64
	// Radio parameterizes the channel.
	Radio radio.Config
	// Mobility selects the movement model: "waypoint" (the paper's
	// random waypoint; the default when empty) or "direction" (random
	// direction with border reflection, a uniform-density robustness
	// check).
	Mobility string
	// MaxSpeedMS is the random-waypoint top speed (speeds are uniform
	// in (0, max]); the paper uses 1 and 10 m/s. Under "direction" it
	// is the constant movement speed.
	MaxSpeedMS float64
	// PauseTime is the random-waypoint pause, 0–600 s in the paper.
	PauseTime float64
	// Flows is the number of CBR flows; RatePerFlow their packet rate.
	// The paper's "network traffic load is 10 pkts/s" is 10 flows of
	// 1 pkt/s.
	Flows       int
	RatePerFlow float64
	PacketBytes int
	// TrafficStart delays the first packets so the initial election
	// settles.
	TrafficStart float64
	// InitialEnergyJ is each energy-limited host's battery (500 J).
	InitialEnergyJ float64
	// Duration is the simulated time in seconds.
	Duration float64
	// SampleEvery is the metrics sampling period.
	SampleEvery float64
	// Seed roots every random stream; equal seeds reproduce runs
	// exactly.
	Seed int64
	// ECGRIDOptions / GAFOptions override protocol tunables; nil uses
	// the defaults (GridOptions for GRID).
	ECGRIDOptions *core.Options
	GAFOptions    *gaf.Options
	// Shards is ignored: every run executes on the serial engine.
	//
	// Deprecated: kept so the bench module, which still sets it,
	// compiles. The next change to bench/ and BENCHMARK.json removes it.
	Shards int `json:"-"`
	// Faults, if non-nil and non-empty, injects the plan's crashes,
	// battery shocks, jamming, paging loss, and GPS errors into the run.
	// omitempty keeps the JSON encoding — and with it batch content
	// keys — identical to fault-free configs when no plan is set.
	Faults *faults.Plan `json:",omitempty"`
	// Gen, if non-nil, expands a declarative scenario-generator spec
	// (internal/scengen) over this config: deployment replaces the
	// uniform placement, mobility overrides the Mobility field, traffic
	// reshapes the flows, and propagation adds obstacles to the
	// channel. omitempty keeps batch keys of plain configs unchanged,
	// exactly as with Faults.
	Gen *scengen.Spec `json:",omitempty"`
	// Trace, if non-nil, records every transmission (and deliveries)
	// into the given recorder. Runtime-only: not serialized.
	Trace *trace.Recorder `json:"-"`
}

// Default returns the paper's common setup with the given protocol.
func Default(p ProtocolKind) Config {
	return Config{
		Protocol:       p,
		Hosts:          100,
		EndpointHosts:  10,
		AreaSize:       1000,
		GridSize:       100,
		Radio:          radio.DefaultConfig(),
		MaxSpeedMS:     1,
		PauseTime:      0,
		Flows:          10,
		RatePerFlow:    1,
		PacketBytes:    512,
		TrafficStart:   5,
		InitialEnergyJ: 500,
		Duration:       2000,
		SampleEvery:    10,
		Seed:           1,
	}
}

// Validate checks the configuration for mistakes a constructor cannot
// repair.
func (c Config) Validate() error {
	switch c.Protocol {
	case ECGRID, GRID, GAF, AODV, SPAN:
	default:
		return fmt.Errorf("scenario: unknown protocol %q", c.Protocol)
	}
	if c.Hosts <= 0 {
		return errors.New("scenario: need at least one host")
	}
	if c.Protocol == GAF && c.EndpointHosts < 2 && c.Flows > 0 {
		return errors.New("scenario: GAF Model 1 needs at least two endpoint hosts")
	}
	if c.AreaSize <= 0 || c.GridSize <= 0 || !finite(c.AreaSize) || !finite(c.GridSize) {
		return errors.New("scenario: non-positive or degenerate area or grid size")
	}
	if c.GridSize > c.AreaSize {
		return errors.New("scenario: grid cell larger than the area")
	}
	if c.MaxSpeedMS <= 0 || !finite(c.MaxSpeedMS) {
		return errors.New("scenario: non-positive speed")
	}
	switch c.Mobility {
	case "", "waypoint", "direction":
	default:
		return fmt.Errorf("scenario: unknown mobility model %q", c.Mobility)
	}
	if c.PauseTime < 0 || !finite(c.PauseTime) {
		return errors.New("scenario: negative pause time")
	}
	// Traffic parameters must be sane even with zero flows: a negative
	// rate or packet size in a flow-less config is a sweep-construction
	// bug that would otherwise hide until Flows goes positive.
	if c.Flows < 0 || c.RatePerFlow < 0 || c.PacketBytes < 0 || !finite(c.RatePerFlow) {
		return errors.New("scenario: invalid traffic parameters")
	}
	if c.Flows > 0 && (c.RatePerFlow <= 0 || c.PacketBytes <= 0) {
		return errors.New("scenario: invalid traffic parameters")
	}
	if c.TrafficStart < 0 || !finite(c.TrafficStart) {
		return errors.New("scenario: negative traffic start")
	}
	if c.Flows > 0 && c.Hosts < 2 && c.Protocol != GAF {
		return errors.New("scenario: traffic needs at least two hosts")
	}
	if c.InitialEnergyJ <= 0 || !finite(c.InitialEnergyJ) {
		return errors.New("scenario: non-positive initial energy")
	}
	if c.Duration <= 0 || c.SampleEvery <= 0 || !finite(c.Duration) || !finite(c.SampleEvery) {
		return errors.New("scenario: non-positive duration or sample period")
	}
	if c.Radio.Range <= 0 || c.Radio.BitrateBps <= 0 || !finite(c.Radio.Range) || !finite(c.Radio.BitrateBps) {
		return errors.New("scenario: non-positive or non-finite radio range or bitrate")
	}
	if c.Radio.PropDelay < 0 || c.Radio.SlotTime < 0 || c.Radio.DIFS < 0 ||
		!finite(c.Radio.PropDelay) || !finite(c.Radio.SlotTime) || !finite(c.Radio.DIFS) {
		return errors.New("scenario: negative or non-finite radio propagation delay, slot time or DIFS")
	}
	if c.Faults != nil {
		total := c.Hosts
		if c.Protocol == GAF {
			total += c.EndpointHosts
		}
		if err := c.Faults.Validate(total, c.AreaSize, c.Duration); err != nil {
			return err
		}
	}
	if c.Gen != nil {
		if c.Gen.Mobility != nil && c.Mobility != "" {
			return fmt.Errorf("scenario: both Mobility %q and a generator mobility spec set", c.Mobility)
		}
		total := c.Hosts
		if c.Protocol == GAF {
			total += c.EndpointHosts
		}
		if err := c.Gen.Validate(total, c.AreaSize); err != nil {
			return err
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// NetworkLoadPktsPerSec returns the aggregate offered load.
func (c Config) NetworkLoadPktsPerSec() float64 {
	return float64(c.Flows) * c.RatePerFlow
}

// String summarizes the scenario for logs and reports.
func (c Config) String() string {
	return fmt.Sprintf("%s n=%d v≤%gm/s pause=%gs load=%gpkt/s seed=%d",
		c.Protocol, c.Hosts, c.MaxSpeedMS, c.PauseTime, c.NetworkLoadPktsPerSec(), c.Seed)
}
