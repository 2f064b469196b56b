package experiment

import (
	"fmt"
	"io"
	"sort"

	"ecgrid/internal/radio"
	"ecgrid/internal/runner"
	"ecgrid/internal/scenario"
)

// Overhead is an extension experiment beyond the paper's figures: it
// breaks down each protocol's on-air bytes into data versus control
// traffic and reports the control cost per delivered packet. The paper
// reasons about this overhead qualitatively ("the increased power
// consumption results from the exchanging of the HELLO message");
// this experiment measures it.

// OverheadRow is one protocol's air-usage breakdown.
type OverheadRow struct {
	Protocol      scenario.ProtocolKind
	Delivered     int
	DataBytes     uint64
	ControlBytes  uint64
	ControlFrames uint64
	// ByKind is the full per-frame-kind split.
	ByKind map[string]radio.KindCount
}

// ControlBytesPerDelivered returns the control cost of one delivered
// packet, in bytes.
func (r OverheadRow) ControlBytesPerDelivered() float64 {
	if r.Delivered == 0 {
		return 0
	}
	return float64(r.ControlBytes) / float64(r.Delivered)
}

// OverheadResult is the experiment outcome.
type OverheadResult struct {
	Rows []OverheadRow
}

// planOverhead measures the air-usage breakdown of all three protocols
// on the paper's common setup. The breakdown has no mean±CI form, so it
// runs at Options.Seed alone.
func planOverhead(opt Options) *plan {
	duration := 400.0
	if opt.Fast {
		duration = 120
	}
	p := &plan{oneSeed: true}
	for _, proto := range protocols {
		cfg := baseConfig(proto, 1, opt.Seed)
		cfg.Duration = duration
		p.add(fmt.Sprintf("overhead: %v", cfg), cfg)
	}
	p.fold = func(runs []*runner.Results) Output {
		res := &OverheadResult{}
		for i, proto := range protocols {
			r := runs[i]
			row := OverheadRow{
				Protocol:  proto,
				Delivered: r.Delivered,
				ByKind:    r.PerKind,
			}
			for kind, kc := range r.PerKind {
				if kind == "data" {
					row.DataBytes += kc.Bytes
					continue
				}
				row.ControlBytes += kc.Bytes
				row.ControlFrames += kc.Frames
			}
			res.Rows = append(res.Rows, row)
		}
		return res
	}
	return p
}

// WriteTable renders the breakdown.
func (o *OverheadResult) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "Extension: on-air overhead breakdown (bytes on air)"); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %10s %12s %12s %10s %14s\n",
		"proto", "delivered", "data-B", "control-B", "ctrl-frames", "ctrl-B/deliv")
	for _, r := range o.Rows {
		fmt.Fprintf(w, "%-8s %10d %12d %12d %10d %14.1f\n",
			r.Protocol, r.Delivered, r.DataBytes, r.ControlBytes,
			r.ControlFrames, r.ControlBytesPerDelivered())
	}
	fmt.Fprintln(w)
	for _, r := range o.Rows {
		kinds := make([]string, 0, len(r.ByKind))
		for k := range r.ByKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Fprintf(w, "%-8s", r.Protocol)
		for _, k := range kinds {
			fmt.Fprintf(w, " %s=%d/%dB", k, r.ByKind[k].Frames, r.ByKind[k].Bytes)
		}
		fmt.Fprintln(w)
	}
	_, err := fmt.Fprintln(w)
	return err
}
