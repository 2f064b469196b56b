package radio

// Config sets the physical and MAC parameters of the channel.
type Config struct {
	// Range is the transmission (and carrier-sense) distance in meters.
	// The paper uses 250 m.
	Range float64
	// BitrateBps is the channel bitrate in bits per second. The paper's
	// Cabletron card runs at 2 Mbps.
	BitrateBps float64
	// PropDelay is the fixed propagation delay in seconds. At 250 m it
	// is under a microsecond; it exists so latency is never exactly
	// zero.
	PropDelay float64
	// SlotTime is the backoff slot duration in seconds (802.11 DS: 20 µs).
	SlotTime float64
	// DIFS is the idle period sensed before any transmission attempt.
	DIFS float64
	// MinBackoffSlots and MaxBackoffSlots bound the contention window.
	// The window starts at MinBackoffSlots and doubles per deferral or
	// retry up to MaxBackoffSlots.
	MinBackoffSlots int
	MaxBackoffSlots int
	// MACRetries is how many times a unicast frame is retransmitted
	// when its destination failed to receive it. The channel emulates
	// the ACK/timeout loop without simulating ACK frames: it knows
	// ground truth about reception.
	MACRetries int
	// CollisionsEnabled toggles collision corruption. Disabling it
	// yields the idealized channel used by the ablation benchmark.
	CollisionsEnabled bool
	// QueueLimit caps each host's MAC transmit queue; further Sends are
	// dropped (tail drop), as a real interface would.
	QueueLimit int
	// BruteForce disables the spatial neighbor index and scans the full
	// population per transmission, as the seed implementation did. The
	// two paths are byte-identical (see internal/runner's equivalence
	// test); brute force is a Go-only test oracle, not a model
	// parameter: it is never serialized, so it stays out of batch keys
	// and out of the HTTP API.
	BruteForce bool `json:"-"`
	// NoRxCache disables the receiver-plane cache (rxcache.go) and runs
	// every transmission through the uncached scan, as the live
	// reference oracle for the cache's byte-identity — the same role
	// BruteForce plays for the spatial index. BruteForce implies it (the
	// cache needs the index). Runtime-only like BruteForce: a cached and
	// an uncached run of one model share one batch key.
	NoRxCache bool `json:"-"`
}

// DefaultConfig returns parameters matching the paper's simulation setup.
func DefaultConfig() Config {
	return Config{
		Range:             250,
		BitrateBps:        2e6,
		PropDelay:         1e-6,
		SlotTime:          20e-6,
		DIFS:              50e-6,
		MinBackoffSlots:   4,
		MaxBackoffSlots:   64,
		MACRetries:        3,
		CollisionsEnabled: true,
		QueueLimit:        64,
	}
}

// AirTime returns the seconds a frame of the given size occupies the
// medium.
func (c Config) AirTime(bytes int) float64 {
	return float64(bytes*8) / c.BitrateBps
}

// OnAirInterval returns the longest interval between a transmission
// start and its final reception instant for frames up to maxBytes:
// serialization of the largest frame plus the propagation delay. It
// bounds how far into the future a committed send can still deliver,
// which is what internal/shard's conservative lookahead is built from.
func (c Config) OnAirInterval(maxBytes int) float64 {
	return c.AirTime(maxBytes) + c.PropDelay
}
