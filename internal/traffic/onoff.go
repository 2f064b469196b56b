package traffic

import (
	"ecgrid/internal/hostid"
	"ecgrid/internal/routing"
	"ecgrid/internal/sim"
)

// OnOff is a bursty on/off flow: while "on" it emits packets at Rate
// like a CBR source, while "off" it is silent, and the on/off period
// lengths are exponentially distributed with the given means. The
// classic interrupted-Poisson workload shape — bursts stress MAC
// contention and route caches in a way smooth CBR never does.
//
// Determinism: period lengths draw from the run RNG's dedicated
// "scengen.traffic" stream inside engine events, so two runs of the
// same scenario toggle at identical times.
type OnOff struct {
	Flow  int
	Src   hostid.ID
	Dst   hostid.ID
	Rate  float64 // packets per second while on
	Bytes int
	// MeanOnS / MeanOffS are the mean burst and silence durations in
	// seconds.
	MeanOnS  float64
	MeanOffS float64

	engine *sim.Engine
	sender Sender
	rng    *sim.RNG
	ticker *sim.Ticker
	toggle *sim.Timer
	on     bool
	seq    int

	// OnSend observes every emitted packet (metrics); Gate suppresses
	// emission when it returns false (dead source). Both as in CBR.
	OnSend func(pkt *routing.DataPacket)
	Gate   func() bool
}

// Start begins the flow: the source is "on" from the first tick, with
// the first toggle one mean burst length (drawn) later. The emission
// clock runs at the flow rate with the given phase, exactly like CBR,
// and is simply gated off during silences.
func (o *OnOff) Start(engine *sim.Engine, sender Sender, rng *sim.RNG, phase float64) {
	if o.Rate <= 0 || o.Bytes <= 0 || o.MeanOnS <= 0 || o.MeanOffS <= 0 {
		panic("traffic: invalid on/off parameters")
	}
	if sender == nil || rng == nil {
		panic("traffic: nil sender or rng")
	}
	o.engine = engine
	o.sender = sender
	o.rng = rng
	o.on = true
	o.toggle = sim.NewTimer(engine, o.flip)
	o.toggle.Reset(o.rng.Exp(sim.StreamScengenTraffic, o.MeanOnS))
	o.ticker = sim.NewTicker(engine, 1/o.Rate, phase, o.emit)
}

func (o *OnOff) flip() {
	o.on = !o.on
	mean := o.MeanOffS
	if o.on {
		mean = o.MeanOnS
	}
	o.toggle.Reset(o.rng.Exp(sim.StreamScengenTraffic, mean))
}

func (o *OnOff) emit() {
	if !o.on {
		return
	}
	if o.Gate != nil && !o.Gate() {
		return
	}
	o.seq++
	send(o.engine, o.sender, o.OnSend, o.Flow, o.seq, o.Src, o.Dst, o.Bytes)
}

// Stop halts the flow and its toggle clock.
func (o *OnOff) Stop() {
	if o.ticker != nil {
		o.ticker.Stop()
	}
	if o.toggle != nil {
		o.toggle.Stop()
	}
}

// Emitted returns how many packets the flow has generated.
func (o *OnOff) Emitted() int { return o.seq }

// On reports whether the source is currently in a burst.
func (o *OnOff) On() bool { return o.on }
