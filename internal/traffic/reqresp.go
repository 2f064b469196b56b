package traffic

import (
	"ecgrid/internal/hostid"
	"ecgrid/internal/routing"
	"ecgrid/internal/sim"
)

// ReqResp is a request/response flow pair: host A sends a request to
// host B every Interval seconds, and B answers each delivered request
// with a response packet after a fixed service delay. Requests travel
// on flow Flow, responses on flow RespFlow — two flows in the metrics,
// so delivery rate and latency account both directions.
//
// The environment must feed every data delivery at B back into
// Delivered (the runner chains it off the protocol's OnDeliver hook);
// responses to requests that never arrive are, correctly, never sent.
type ReqResp struct {
	Flow     int // request flow id
	RespFlow int // response flow id (distinct from every request flow)
	A        hostid.ID
	B        hostid.ID
	Interval float64 // seconds between requests
	Bytes    int     // request payload size
	// RespBytes is the response payload size (a typical fetch: small
	// request, larger response).
	RespBytes int
	// RespDelayS is B's service time between delivery of a request and
	// emission of its response.
	RespDelayS float64

	engine       *sim.Engine
	aSend, bSend Sender
	ticker       *sim.Ticker
	seqReq       int
	seqResp      int
	stopped      bool

	// OnSend observes every emitted packet, requests and responses
	// alike; GateA/GateB suppress emission from a dead endpoint.
	OnSend func(pkt *routing.DataPacket)
	GateA  func() bool
	GateB  func() bool
}

// Start begins the request clock: the first request fires after one
// interval plus the given phase.
func (r *ReqResp) Start(engine *sim.Engine, aSend, bSend Sender, phase float64) {
	if r.Interval <= 0 || r.Bytes <= 0 || r.RespBytes <= 0 || r.RespDelayS < 0 {
		panic("traffic: invalid request/response parameters")
	}
	if aSend == nil || bSend == nil {
		panic("traffic: nil sender")
	}
	if r.RespFlow == r.Flow {
		panic("traffic: response flow id must differ from the request's")
	}
	r.engine = engine
	r.aSend = aSend
	r.bSend = bSend
	r.ticker = sim.NewTicker(engine, r.Interval, phase, r.request)
}

func (r *ReqResp) request() {
	if r.GateA != nil && !r.GateA() {
		return
	}
	r.seqReq++
	send(r.engine, r.aSend, r.OnSend, r.Flow, r.seqReq, r.A, r.B, r.Bytes)
}

// Delivered must be called for every data packet delivered anywhere in
// the run (the runner multiplexes); packets that are not this pair's
// requests are ignored. A delivered request schedules its response.
func (r *ReqResp) Delivered(pkt *routing.DataPacket) {
	if pkt.Flow != r.Flow || pkt.Dst != r.B {
		return
	}
	r.engine.Schedule(r.RespDelayS, r.respond)
}

func (r *ReqResp) respond() {
	if r.stopped {
		return
	}
	if r.GateB != nil && !r.GateB() {
		return
	}
	r.seqResp++
	send(r.engine, r.bSend, r.OnSend, r.RespFlow, r.seqResp, r.B, r.A, r.RespBytes)
}

// Stop halts the request clock and suppresses responses still in the
// service queue.
func (r *ReqResp) Stop() {
	r.stopped = true
	if r.ticker != nil {
		r.ticker.Stop()
	}
}

// Emitted returns how many packets the pair generated in total
// (requests plus responses).
func (r *ReqResp) Emitted() int { return r.seqReq + r.seqResp }
