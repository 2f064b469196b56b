// Package core implements ECGRID, the paper's contribution: an
// energy-conserving, grid-based, location-aware routing protocol for
// mobile ad hoc networks.
//
// One host per grid cell is elected gateway and stays awake to forward
// route discovery and data; every other host turns its transceiver off.
// Sleeping hosts are woken on demand through the RAS paging substrate, so
// no periodic wakeups are needed and packets to sleeping destinations are
// buffered at the gateway instead of lost.
//
// The same implementation also serves as the GRID baseline: GRID is
// ECGRID with energy management disabled (no sleeping, no energy-aware
// election, no load balancing), which is exactly how the paper relates
// the two protocols. Use GridOptions for that configuration.
package core

import "fmt"

// Options are the protocol's tunables and feature switches. The zero
// value is not meaningful; start from DefaultOptions or GridOptions.
type Options struct {
	// HelloPeriod is the interval between periodic HELLO broadcasts of
	// active hosts (§3.1 step 1) and the window of the election
	// algorithm (step 2).
	HelloPeriod float64
	// HelloJitterFrac randomizes each host's HELLO phase by a uniform
	// fraction of the period, de-synchronizing broadcasts.
	HelloJitterFrac float64
	// Tau is the paper's τ: the time a retiring gateway waits between
	// paging the grid's broadcast sequence and sending RETIRE, so that
	// sleeping hosts are awake to hear it.
	Tau float64
	// ElectionWait is the HELLO-exchange window of the election
	// algorithm (§3.1 step 2). Handover elections leave the grid
	// gatewayless for this long, so it is kept shorter than the
	// periodic HelloPeriod: all participants are awake and send their
	// HELLOs within the jitter window anyway.
	ElectionWait float64
	// HoldRetries and HoldDelay govern forwarding across a handover
	// gap: a gateway that cannot reach the next grid's gateway holds
	// the packet and retries instead of immediately declaring the
	// route broken, bridging the gatewayless window of an election.
	HoldRetries int
	HoldDelay   float64
	// GatewayTimeout is how long an active member tolerates silence
	// from its gateway before declaring a no-gateway event (case 1 of
	// §3.2).
	GatewayTimeout float64
	// RouteTTL expires unused routing-table entries.
	RouteTTL float64
	// DupTTL expires duplicate-RREQ records.
	DupTTL float64
	// BufferPerDest bounds the gateway's per-destination data buffer.
	BufferPerDest int
	// MaxDwell caps the sleep timer derived from the GPS dwell
	// estimate; a paused host re-checks at least this often.
	MaxDwell float64
	// IdleTimeout is how long a non-gateway host stays active after its
	// last send or receive before going (back) to sleep.
	IdleTimeout float64
	// AcqTimeout and AcqRetries govern the ACQ handshake of a host that
	// woke up to transmit (§3.3): no gateway response within the
	// timeout re-sends the ACQ; exhausting retries is a no-gateway
	// event (case 2 of §3.2).
	AcqTimeout float64
	AcqRetries int
	// DiscoveryTimeout and DiscoveryRetries govern route discovery:
	// a confined search that yields no RREP is retried, finally with a
	// global search area, matching §3.3.
	DiscoveryTimeout float64
	DiscoveryRetries int
	// FlushDelay is the wait between paging a sleeping destination and
	// force-flushing its buffered packets if no Awake notice arrived.
	FlushDelay float64
	// NeighborGWTTL expires the cache of neighboring grids' gateway
	// identities (learned from overheard gflag HELLOs).
	NeighborGWTTL float64
	// MemberActiveTTL and MemberSleepTTL age the gateway's host table:
	// an active member re-HELLOs every period, so a silent one has
	// left; a sleeping member stays silent until its dwell wake-up
	// (bounded by MaxDwell), so its row must outlive that.
	MemberActiveTTL float64
	MemberSleepTTL  float64
	// PacketTTL drops data packets older than this at every forwarding
	// decision, bounding queueing tails (a default AODV-style lifetime).
	PacketTTL float64
	// RetireEnergySecs makes a gateway retire when its remaining
	// battery, at idle draw, is below this many seconds — the paper's
	// "the gateway will issue a broadcast sequence and a RETIRE message
	// before its battery runs out".
	RetireEnergySecs float64

	// SleepEnabled turns the energy-conserving machinery on. False
	// reproduces GRID: every host stays awake.
	SleepEnabled bool
	// EnergyAwareElection uses the paper's battery-level election rules.
	// False elects purely by distance to the grid center (GRID's rule).
	EnergyAwareElection bool
	// LoadBalance makes a gateway retire when its battery band drops
	// (upper→boundary or boundary→lower), §3.2.
	LoadBalance bool
	// UseRAS enables on-demand paging of sleeping hosts. When false
	// (ablation), sleeping destinations receive buffered packets only
	// when their own dwell timers happen to wake them — GAF-style.
	UseRAS bool
	// Search selects the searching-area confinement policy (§3.3; the
	// GRID paper offers several). See the SearchPolicy constants.
	Search SearchPolicy
	// DesignateSuccessor lets a retiring gateway name the election
	// winner inside its RETIRE message (computed with the same rules
	// from its freshest HELLO data), removing the handover's
	// gatewayless election window. Off by default: measurements (see
	// BenchmarkAblationDesignate) show the stale designations of
	// long-sleeping members cost as much via the fallback timeout as
	// the skipped election saves.
	DesignateSuccessor bool
	// InterRREP lets intermediate gateways holding a fresh-enough route
	// answer RREQs, AODV-style. Off by default: the paper routes RREQs
	// all the way to the destination's gateway.
	InterRREP bool
}

// DefaultOptions returns the ECGRID configuration used throughout the
// evaluation.
func DefaultOptions() Options {
	return Options{
		HelloPeriod:         1.0,
		HelloJitterFrac:     0.25,
		Tau:                 0.05,
		ElectionWait:        0.5,
		HoldRetries:         3,
		HoldDelay:           0.7,
		GatewayTimeout:      2.5,
		RouteTTL:            30,
		DupTTL:              30,
		BufferPerDest:       32,
		MaxDwell:            60,
		IdleTimeout:         0.6,
		AcqTimeout:          0.3,
		AcqRetries:          2,
		DiscoveryTimeout:    0.5,
		DiscoveryRetries:    2,
		FlushDelay:          0.05,
		NeighborGWTTL:       3.0,
		MemberActiveTTL:     2.5,
		MemberSleepTTL:      90.0,
		PacketTTL:           10.0,
		RetireEnergySecs:    5,
		SleepEnabled:        true,
		EnergyAwareElection: true,
		LoadBalance:         true,
		UseRAS:              true,
	}
}

// SearchPolicy selects how route searches are confined (§3.3).
type SearchPolicy int

const (
	// SearchConfinedThenGlobal (the default, and the paper's two-round
	// scheme): first search the smallest rectangle covering the source
	// and the destination's last known grid, then fall back to a global
	// search — "another round of route searching should be initialized
	// to search all areas".
	SearchConfinedThenGlobal SearchPolicy = iota
	// SearchExpanding widens the rectangle's margin exponentially per
	// retry (1, 2, 4, ... cells) before the final global round — one of
	// the GRID paper's alternative confinement schemes.
	SearchExpanding
	// SearchGlobal never confines: every request floods the partition.
	SearchGlobal
)

// String names the policy.
func (p SearchPolicy) String() string {
	switch p {
	case SearchConfinedThenGlobal:
		return "confined-then-global"
	case SearchExpanding:
		return "expanding"
	case SearchGlobal:
		return "global"
	default:
		return "SearchPolicy(?)"
	}
}

// Validate reports configuration mistakes: non-positive periods and
// windows, or caps that cannot work together. New panics on an invalid
// Options; library users building custom configurations can check first.
func (o Options) Validate() error {
	switch {
	case o.HelloPeriod <= 0:
		return fmt.Errorf("core: HelloPeriod %v must be positive", o.HelloPeriod)
	case o.HelloJitterFrac < 0 || o.HelloJitterFrac >= 1:
		return fmt.Errorf("core: HelloJitterFrac %v must be in [0, 1)", o.HelloJitterFrac)
	case o.Tau < 0:
		return fmt.Errorf("core: Tau %v must be non-negative", o.Tau)
	case o.GatewayTimeout <= o.HelloPeriod:
		return fmt.Errorf("core: GatewayTimeout %v must exceed HelloPeriod %v (a single missed HELLO is not silence)", o.GatewayTimeout, o.HelloPeriod)
	case o.BufferPerDest <= 0:
		return fmt.Errorf("core: BufferPerDest %d must be positive", o.BufferPerDest)
	case o.MaxDwell <= 0:
		return fmt.Errorf("core: MaxDwell %v must be positive", o.MaxDwell)
	case o.IdleTimeout <= 0:
		return fmt.Errorf("core: IdleTimeout %v must be positive", o.IdleTimeout)
	case o.AcqTimeout <= 0 || o.AcqRetries < 0:
		return fmt.Errorf("core: invalid ACQ parameters (%v, %d)", o.AcqTimeout, o.AcqRetries)
	case o.DiscoveryTimeout <= 0 || o.DiscoveryRetries < 0:
		return fmt.Errorf("core: invalid discovery parameters (%v, %d)", o.DiscoveryTimeout, o.DiscoveryRetries)
	case o.DupTTL <= 0:
		return fmt.Errorf("core: DupTTL %v must be positive", o.DupTTL)
	case o.SleepEnabled && o.MemberSleepTTL > 0 && o.MemberSleepTTL < o.MaxDwell:
		return fmt.Errorf("core: MemberSleepTTL %v must cover MaxDwell %v or sleepers expire mid-sleep", o.MemberSleepTTL, o.MaxDwell)
	}
	switch o.Search {
	case SearchConfinedThenGlobal, SearchExpanding, SearchGlobal:
	default:
		return fmt.Errorf("core: unknown search policy %d", int(o.Search))
	}
	return nil
}

// GridOptions returns the GRID baseline: the same grid routing with all
// energy conservation disabled.
func GridOptions() Options {
	o := DefaultOptions()
	o.SleepEnabled = false
	o.EnergyAwareElection = false
	o.LoadBalance = false
	o.UseRAS = false
	// Nobody sleeps under GRID, so a silent member has simply left:
	// no demotion window.
	o.MemberSleepTTL = o.MemberActiveTTL
	return o
}

// Stats counts protocol events on one host; the runner aggregates them
// across hosts for the overhead metrics.
type Stats struct {
	HellosSent     uint64
	RREQsSent      uint64 // originated or forwarded
	RREPsSent      uint64
	RERRsSent      uint64
	RetiresSent    uint64
	TransfersSent  uint64
	ACQsSent       uint64
	LeavesSent     uint64
	DataForwarded  uint64
	DataDelivered  uint64
	DataDropped    uint64
	DropMisdirect  uint64 // stale unicast reached a member with no gateway
	DropNoRoute    uint64 // transit gateway without a route
	DropDiscovery  uint64 // origin discovery exhausted its retries
	DropUnreach    uint64 // paged destination never answered
	DropExpired    uint64 // packet exceeded PacketTTL in queues
	PagesSent      uint64
	GridPagesSent  uint64
	ElectionsRun   uint64
	BecameGateway  uint64
	NoGatewayEvnts uint64
	SleepsEntered  uint64
}
