package experiment

import (
	"fmt"

	"ecgrid/internal/runner"
)

// planLoad plans the Load extension, which covers the paper's second
// traffic point: §4 says each source sends "one or ten 512-byte packets
// per second", but every figure uses the 10 pkt/s network load (ten
// 1 pkt/s flows). This sweep varies the per-flow rate from the paper's
// light setting up to its heavy one (10 flows × 10 pkt/s = 100 pkt/s
// network load, 20 % of the 2 Mbps channel) and reports how delivery
// holds up for each protocol.
func planLoad(opt Options) *plan {
	rates := []float64{1, 2, 5, 10}
	duration := 400.0
	if opt.Fast {
		rates = []float64{1, 10}
		duration = 120
	}
	res := &Result{
		Figure: Load,
		Title:  "Extension: delivery rate vs per-flow CBR rate (10 flows, speed ≤ 1 m/s)",
		XLabel: "Per-flow rate (pkt/s)",
		YLabel: "Delivery rate",
	}
	p := &plan{}
	for _, proto := range protocols {
		for _, rate := range rates {
			cfg := baseConfig(proto, 1, opt.Seed)
			cfg.RatePerFlow = rate
			cfg.Duration = duration
			p.add(fmt.Sprintf("load sweep: %v", cfg), cfg)
		}
	}
	p.fold = func(runs []*runner.Results) Output {
		i := 0
		for _, proto := range protocols {
			s := Series{Label: string(proto)}
			for _, rate := range rates {
				s.Points = append(s.Points, Point{X: rate, Y: runs[i].DeliveryRate})
				i++
			}
			res.Series = append(res.Series, s)
		}
		return res
	}
	return p
}
