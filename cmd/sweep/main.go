// Command sweep runs a parameter sweep over one scenario dimension and
// prints a CSV row per run: protocol, the swept value, delivery rate,
// mean latency, first death, final alive fraction, and aen.
//
// Runs fan out across a worker pool (-parallel; every worker count
// reproduces the serial results exactly), and -out records a JSONL
// manifest as runs complete so an interrupted sweep restarts where it
// left off with -resume.
//
// -shards runs each simulation on the spatially-sharded parallel
// engine; results stay byte-identical for every shard count. -parallel
// and -shards compose through a shared process-wide worker budget of
// GOMAXPROCS slots: each concurrent run holds one slot and its shard
// pool takes helpers only from what is left, so requesting
// `-parallel 8 -shards 4` on an 8-core machine runs 8 concurrent jobs
// whose shard phases execute serially (results unchanged) rather than
// 32 goroutines fighting for 8 cores. Prefer -parallel for many small
// runs and -shards for a few large ones.
//
// Usage:
//
//	sweep -param hosts -values 50,100,150,200 -protocols grid,ecgrid
//	sweep -param pause -values 0,100,200,300,400,500,600
//	sweep -param speed -values 1,2,5,10 -duration 590
//	sweep -param seed  -values 1,2,3,4,5 -protocols ecgrid
//	sweep -param hosts -values 50,100,150,200 -out sweep.jsonl -parallel 8
//	sweep -param hosts -values 50,100,150,200 -out sweep.jsonl -resume
//	sweep -scenario dense-manhattan-10k -param seed -values 1 -store results/
//
// -scenario bases every run on a generated scenario from the
// scenarios/ library (or any scenario JSON file); flags not explicitly
// passed keep the file's values, and the swept parameter still applies.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"ecgrid/internal/batch"
	"ecgrid/internal/faults"
	"ecgrid/internal/prof"
	"ecgrid/internal/scenario"
	"ecgrid/internal/store"
)

func main() {
	var (
		param     = flag.String("param", "hosts", "dimension to sweep: hosts, pause, speed, rate, flows, energy, seed")
		values    = flag.String("values", "50,100,150,200", "comma-separated values")
		protocols = flag.String("protocols", "grid,ecgrid,gaf", "comma-separated protocols")
		duration  = flag.Float64("duration", 590, "simulated seconds per run")
		seed      = flag.Int64("seed", 1, "base random seed")
		parallel  = flag.Int("parallel", 0, "concurrent runs; 0 uses all cores, 1 runs serially")
		out       = flag.String("out", "", "append a JSONL manifest of completed runs to this file")
		resume    = flag.Bool("resume", false, "skip runs already recorded in the -out manifest")
		storeDir  = flag.String("store", "", "content-addressed result store directory shared with simd; cached runs are skipped")
		scenRef   = flag.String("scenario", "",
			"base every run on a generated scenario: a JSON file path or a scenarios/<name> library entry")
		shards = flag.Int("shards", 0,
			"run every simulation on the sharded parallel engine with this many strips (byte-identical results; shares a GOMAXPROCS worker budget with -parallel)")
		noRxCache = flag.Bool("norxcache", false,
			"disable the receiver-plane cache in every run (uncached reference scan; byte-identical results, so a warm -store answers from its entries)")
		retries  = flag.Int("retries", 0, "extra attempts for a failed run")
		faultArg = flag.String("faults", "",
			"inject a fault plan into every run: a preset ("+strings.Join(faults.PresetNames(), ", ")+") or a plan JSON file")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	// Validate the full request up front: an unknown protocol or value
	// must exit(2) immediately, not panic halfway through a sweep.
	//
	// With -scenario the loaded config is the per-job base instead of
	// scenario.Default, and flags the user did not explicitly pass keep
	// the file's values (flag.Visit distinguishes "default" from "typed
	// the default"). The swept parameter always applies.
	var base *scenario.Config
	if *scenRef != "" {
		loaded, err := scenario.ResolveRef(*scenRef)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		base = &loaded
	}
	explicit := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	var protos []scenario.ProtocolKind
	if base != nil && !explicit["protocols"] {
		protos = []scenario.ProtocolKind{base.Protocol}
	} else {
		for _, p := range strings.Split(*protocols, ",") {
			proto, err := scenario.ParseProtocol(p)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			protos = append(protos, proto)
		}
	}
	var vals []float64
	for _, v := range strings.Split(*values, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad value %q: %v\n", v, err)
			os.Exit(2)
		}
		vals = append(vals, f)
	}
	var jobs []batch.Job
	for _, proto := range protos {
		for _, v := range vals {
			cfg := scenario.Default(proto)
			if base != nil {
				cfg = *base
				cfg.Protocol = proto
			}
			if base == nil || explicit["duration"] {
				cfg.Duration = *duration
			}
			if base == nil || explicit["seed"] {
				cfg.Seed = *seed
			}
			switch *param {
			case "hosts":
				cfg.Hosts = int(v)
			case "pause":
				cfg.PauseTime = v
			case "speed":
				cfg.MaxSpeedMS = v
			case "rate":
				cfg.RatePerFlow = v
			case "flows":
				cfg.Flows = int(v)
			case "energy":
				cfg.InitialEnergyJ = v
			case "seed":
				cfg.Seed = int64(v)
			default:
				fmt.Fprintf(os.Stderr, "unknown param %q\n", *param)
				os.Exit(2)
			}
			if *shards != 0 {
				cfg.Shards = *shards
			}
			if *noRxCache {
				cfg.Radio.NoRxCache = true
			}
			if *faultArg != "" {
				// Resolved per job: presets scale with the job's host
				// count, area, and duration.
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
			jobs = append(jobs, batch.Job{Tag: fmt.Sprintf("%s %s=%g", proto, *param, v), Cfg: cfg})
		}
	}

	if *resume && *out == "" {
		fmt.Fprintln(os.Stderr, "-resume needs -out to name the manifest")
		os.Exit(2)
	}
	opt := batch.Options{
		Workers: *parallel,
		Retries: *retries,
		// The batch layer already says what each line means ("tag",
		// "tag (resumed)", retry notices), so print it unadorned.
		Progress: batch.NewSink(func(s string) { fmt.Fprintln(os.Stderr, s) }),
	}
	if *out != "" {
		if *resume {
			entries, err := batch.LoadManifest(*out)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			opt.Resume = entries
		}
		m, err := batch.CreateManifest(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer m.Close()
		opt.Manifest = m
	}
	if *shards >= 2 {
		if w, cores := opt.WorkerCount(), runtime.GOMAXPROCS(0); w**shards > cores {
			fmt.Fprintf(os.Stderr,
				"note: -parallel %d × -shards %d wants %d workers on %d cores; the shared budget clamps shard pools to the free slots (possibly zero) — results are unchanged\n",
				w, *shards, w**shards, cores)
		}
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.DefaultCacheEntries)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opt.Store = st
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Profiling starts once the sweep is validated and about to run.
	// SIGINT cancels the batch context and unwinds through here, so the
	// deferred stop covers both clean exits and interrupted ones.
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	results, sum := batch.Run(ctx, jobs, opt)

	fmt.Printf("protocol,%s,delivery_rate,mean_latency_ms,first_death_s,alive_end,aen_end\n", *param)
	i := 0
	for _, proto := range protos {
		for _, v := range vals {
			res := results[i]
			i++
			if res.Err != nil {
				fmt.Fprintf(os.Stderr, "failed %s: %v\n", res.Tag, res.Err)
				continue
			}
			r := res.Res
			fmt.Printf("%s,%g,%.4f,%.3f,%.1f,%.3f,%.4f\n",
				proto, v, r.DeliveryRate, r.MeanLatency*1000, r.FirstDeathAt, r.LastAlive, r.Collector.Aen.Last())
		}
	}
	if err := sum.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		stopProf() // os.Exit skips the defer
		os.Exit(1)
	}
}
