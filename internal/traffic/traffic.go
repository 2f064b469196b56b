// Package traffic generates the paper's workload: constant-bit-rate (CBR)
// flows of 512-byte packets between chosen source and destination hosts.
package traffic

import (
	"ecgrid/internal/hostid"
	"ecgrid/internal/routing"
	"ecgrid/internal/sim"
)

// Sender is the protocol-side entry point for application packets. Every
// protocol in this repository implements it.
type Sender interface {
	SubmitData(pkt *routing.DataPacket)
}

// CBR is one constant-bit-rate flow.
type CBR struct {
	Flow  int
	Src   hostid.ID
	Dst   hostid.ID
	Rate  float64 // packets per second
	Bytes int

	engine *sim.Engine
	sender Sender
	ticker *sim.Ticker
	seq    int

	// OnSend, if set, observes every packet the source emits (the
	// metrics collector counts them there).
	OnSend func(pkt *routing.DataPacket)
	// Gate, if set, is consulted before each emission; returning false
	// suppresses the packet (used to stop sources whose host died).
	Gate func() bool
}

// Start begins emitting packets at the flow's rate, with the first packet
// after one period plus the given phase offset.
func (c *CBR) Start(engine *sim.Engine, sender Sender, phase float64) {
	if c.Rate <= 0 || c.Bytes <= 0 {
		panic("traffic: invalid CBR rate or size")
	}
	if sender == nil {
		panic("traffic: nil sender")
	}
	c.engine = engine
	c.sender = sender
	c.ticker = sim.NewTicker(engine, 1/c.Rate, phase, c.emit)
}

func (c *CBR) emit() {
	if c.Gate != nil && !c.Gate() {
		return
	}
	c.seq++
	send(c.engine, c.sender, c.OnSend, c.Flow, c.seq, c.Src, c.Dst, c.Bytes)
}

// send builds one data packet stamped with the engine's clock, shows it
// to onSend when set, and submits it through s.
func send(engine *sim.Engine, s Sender, onSend func(*routing.DataPacket), flow, seq int, src, dst hostid.ID, bytes int) {
	pkt := &routing.DataPacket{
		Flow:   flow,
		Seq:    seq,
		Src:    src,
		Dst:    dst,
		Bytes:  bytes,
		SentAt: engine.Now(),
	}
	if onSend != nil {
		onSend(pkt)
	}
	s.SubmitData(pkt)
}

// Stop halts the flow.
func (c *CBR) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
	}
}

// Emitted returns how many packets the flow has generated.
func (c *CBR) Emitted() int { return c.seq }
