// Command ecgridsim runs one MANET simulation and prints its results.
//
// Usage:
//
//	ecgridsim -protocol ecgrid -hosts 100 -speed 1 -pause 0 \
//	          -flows 10 -rate 1 -duration 590 -seed 1
//
// The defaults reproduce the paper's common setup: a 1000×1000 m region,
// 2 Mbps radio with 250 m range, 100 m grid, 500 J per host, and a
// 10 pkt/s aggregate CBR load.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"ecgrid/internal/faults"
	"ecgrid/internal/prof"
	"ecgrid/internal/runner"
	"ecgrid/internal/scenario"
	"ecgrid/internal/trace"
)

func main() {
	var (
		protocol = flag.String("protocol", "ecgrid", "protocol under test: ecgrid, grid, gaf, span, or aodv")
		hosts    = flag.Int("hosts", 100, "number of energy-limited hosts")
		speed    = flag.Float64("speed", 1, "random-waypoint top speed (m/s)")
		mobility = flag.String("mobility", "waypoint", "mobility model: waypoint or direction")
		pause    = flag.Float64("pause", 0, "random-waypoint pause time (s)")
		flows    = flag.Int("flows", 10, "number of CBR flows")
		rate     = flag.Float64("rate", 1, "packets per second per flow")
		duration = flag.Float64("duration", 590, "simulated seconds")
		energyJ  = flag.Float64("energy", 500, "initial battery per host (J)")
		seed     = flag.Int64("seed", 1, "random seed (runs are reproducible per seed)")
		verbose  = flag.Bool("v", false, "print protocol and radio counters")
		traceN   = flag.Int("trace", 0, "print the last N on-air events")
		scenRef  = flag.String("scenario", "",
			"load the scenario from a JSON file path or a scenarios/<name> library entry (other flags are ignored)")
		savePath = flag.String("save", "", "write the resulting scenario to a JSON file and exit")
		faultArg = flag.String("faults", "",
			"inject faults: a preset ("+strings.Join(faults.PresetNames(), ", ")+") or a plan JSON file")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	cfg := scenario.Default(scenario.ProtocolKind(*protocol))
	cfg.Hosts = *hosts
	cfg.MaxSpeedMS = *speed
	cfg.Mobility = *mobility
	cfg.PauseTime = *pause
	cfg.Flows = *flows
	cfg.RatePerFlow = *rate
	cfg.Duration = *duration
	cfg.InitialEnergyJ = *energyJ
	cfg.Seed = *seed
	if *scenRef != "" {
		loaded, err := scenario.ResolveRef(*scenRef)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg = loaded
	}
	if *faultArg != "" {
		plan, err := faults.Resolve(*faultArg, cfg.Hosts, cfg.AreaSize, cfg.Duration)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Faults = plan
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *savePath != "" {
		if err := cfg.Save(*savePath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *savePath)
		return
	}
	var rec *trace.Recorder
	if *traceN > 0 {
		rec = trace.NewRecorder(*traceN)
		cfg.Trace = rec
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()
	// A run is one uninterruptible call, so profiles on ^C need a
	// handler of their own.
	prof.StopOnInterrupt(stopProf)

	r := runner.Run(cfg)

	fmt.Printf("scenario        %v\n", cfg)
	fmt.Printf("packets         sent=%d delivered=%d duplicates=%d\n", r.Sent, r.Delivered, r.Duplicates)
	fmt.Printf("delivery rate   %.4f\n", r.DeliveryRate)
	fmt.Printf("latency         mean=%.2f ms  p50=%.2f ms  p99=%.2f ms  max=%.2f ms\n",
		r.MeanLatency*1000, r.Collector.LatencyPercentile(0.5)*1000,
		r.Collector.LatencyPercentile(0.99)*1000, r.MaxLatency*1000)
	first := "none"
	if r.FirstDeathAt >= 0 {
		first = fmt.Sprintf("%.1f s", r.FirstDeathAt)
	}
	fmt.Printf("hosts           deaths=%d first=%s alive-at-end=%.2f\n", r.Deaths, first, r.LastAlive)
	fmt.Printf("energy          aen(end)=%.3f of initial charge\n", r.Collector.Aen.Last())
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		fmt.Printf("faults          gw-crashes=%d reelections=%d reelect-latency=%s repair-time=%s\n",
			r.GatewayCrashes, r.Reelections,
			faultSeconds(r.MeanReelectionLatency), faultSeconds(r.MeanRouteRepairTime))
		fmt.Printf("fault delivery  in-window=%s out-window=%s (jammed=%d pages-dropped=%d)\n",
			faultRate(r.InFaultDeliveryRate), faultRate(r.OutFaultDeliveryRate),
			r.Radio.Jammed, r.PagesDropped)
	}

	if *verbose {
		fmt.Printf("\nradio           %+v\n", r.Radio)
		fmt.Println("protocol counters:")
		keys := make([]string, 0, len(r.Protocol))
		for k := range r.Protocol {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-12s %d\n", k, r.Protocol[k])
		}
	}

	if rec != nil {
		fmt.Printf("\nlast %d on-air events (%s):\n", rec.Len(), rec.Summarize())
		if err := trace.Write(os.Stdout, rec.Entries()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			stopProf() // os.Exit skips the defer
			os.Exit(1)
		}
	}
}

// faultSeconds formats a recovery time, where -1 means "never measured".
func faultSeconds(v float64) string {
	if v < 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fs", v)
}

// faultRate formats a delivery rate, where -1 means "no such traffic".
func faultRate(v float64) string {
	if v < 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.4f", v)
}
