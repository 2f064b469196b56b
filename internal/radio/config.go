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
	// NoRxCache is ignored: the receiver-set cache it switched off is
	// gone, and every run uses the one indexed receiver scan.
	//
	// Deprecated: kept so the bench module, which still sets it,
	// compiles. The next change to bench/ removes it.
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
