package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ecgrid/internal/batch"
	"ecgrid/internal/runner"
	"ecgrid/internal/scenario"
	"ecgrid/internal/server"
	"ecgrid/internal/store"
)

// simd-mixed: an in-process simd on a cold store, driven closed-loop by
// simdClients clients with no think time. The stream repeats a working set
// larger than the store's in-memory LRU, so some hits read disk, and mixes
// in execution variants (sharded, receiver cache off) of models already
// requested — traffic that shared stores see from `sweep -shards` and
// `-norxcache` users today.
const (
	simdModels   = 240  // unique models: ECGRID, 50 hosts, 2 flows, 100 s
	simdVariants = 60   // per variant kind, each of a distinct model
	simdRequests = 2400 // blocking POST /v1/run requests
	simdClients  = 2
	simdWorkers  = 2
	simdLRU      = 64 // store.Open cache entries, below the working set
)

// simdConfig is one distinct config of the stream.
type simdConfig struct {
	cfg     scenario.Config
	body    []byte
	model   int    // the model this config executes
	variant string // "", "shards" or "norxcache"
}

// simdPlan derives the distinct configs and the request order from seed:
// every config is requested once, the rest of the stream repeats configs
// drawn uniformly, and every variant's first request follows its model's.
func simdPlan(seed int64) ([]simdConfig, []int, error) {
	rng := rand.New(rand.NewSource(seed))
	cfgs := make([]simdConfig, 0, simdModels+2*simdVariants)
	for i := 0; i < simdModels; i++ {
		c := scenario.Default(scenario.ECGRID)
		c.Hosts = 50
		c.Flows = 2
		c.Duration = 100
		c.Seed = seed + int64(i)
		cfgs = append(cfgs, simdConfig{cfg: c, model: i})
	}
	for k, m := range rng.Perm(simdModels)[:2*simdVariants] {
		v := simdConfig{cfg: cfgs[m].cfg, model: m, variant: "shards"}
		if k < simdVariants {
			v.cfg.Shards = 2
		} else {
			v.cfg.Radio.NoRxCache = true
			v.variant = "norxcache"
		}
		cfgs = append(cfgs, v)
	}
	for i := range cfgs {
		b, err := json.Marshal(cfgs[i].cfg)
		if err != nil {
			return nil, nil, err
		}
		cfgs[i].body = b
	}

	order := make([]int, 0, simdRequests)
	for i := range cfgs {
		order = append(order, i)
	}
	for len(order) < simdRequests {
		order = append(order, rng.Intn(len(cfgs)))
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	first := make([]int, len(cfgs))
	for i := range first {
		first[i] = -1
	}
	for p, c := range order {
		if first[c] < 0 {
			first[c] = p
		}
	}
	// A variant requested before its model swaps first requests with it.
	// Each model has at most one variant, so one pass settles every pair.
	for v := simdModels; v < len(cfgs); v++ {
		pv, pm := first[v], first[cfgs[v].model]
		if pv < pm {
			order[pv], order[pm] = order[pm], order[pv]
		}
	}
	return cfgs, order, nil
}

// simdOutcome is one request as its client saw it.
type simdOutcome struct {
	status     int
	cache, key string
	body       []byte
	start, end time.Duration // since the body started
	err        error
}

func (o *simdOutcome) ms() float64 { return float64(o.end-o.start) / 1e6 }

// span is one timed call at a layer boundary. Spans of one request share
// its batch key: a request links to the executor run it caused and that
// run's store calls.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Key     string  `json:"key"`
	Cache   string  `json:"cache,omitempty"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

func (s span) ms() float64 { return s.EndMS - s.StartMS }

// spanRecorder keeps spans in memory until the body ends.
type spanRecorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (r *spanRecorder) since() float64 { return float64(time.Since(r.t0)) / 1e6 }

// begin opens a span and returns its handle for end.
func (r *spanRecorder) begin(name, key string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Key: key, StartMS: r.since()})
	return len(r.spans) - 1
}

func (r *spanRecorder) end(i int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].EndMS = r.since()
}

// timedStore decorates the executor's result store with store spans.
type timedStore struct {
	st  *store.Store
	rec *spanRecorder
}

func (t timedStore) Get(key string) (*runner.Results, bool, error) {
	defer t.rec.end(t.rec.begin("store.get", key))
	return t.st.Get(key)
}

func (t timedStore) Put(key string, res *runner.Results) error {
	defer t.rec.end(t.rec.begin("store.put", key))
	return t.st.Put(key, res)
}

// freshStats sums the runtime-only telemetry of executed runs, which the
// stored results (and so the responses) do not carry.
type freshStats struct {
	mu      sync.Mutex
	counts  map[string]float64
	stallNS int64
}

func (f *freshStats) add(r *runner.Results) {
	f.mu.Lock()
	defer f.mu.Unlock()
	addRxCache(f.counts, r)
	if r.Shard != nil {
		f.counts["shard.windows"] += float64(r.Shard.Windows)
		f.stallNS += r.Shard.StallNS
	}
}

// newSimd starts an in-process simd over a cold store in dir. With rec set
// (traced runs) the execution path is spelled out so its calls can be
// timed: server.Config.Run wraps the same store-backed executor the server
// builds by default, and the executor's store is decorated.
func newSimd(dir string, rec *spanRecorder, fresh *freshStats) (*httptest.Server, *server.Server, error) {
	st, err := store.Open(dir, simdLRU)
	if err != nil {
		return nil, nil, err
	}
	cfg := server.Config{Store: st, Workers: simdWorkers}
	if rec != nil {
		exec := batch.NewExecutor(context.Background(), batch.Options{
			Workers: simdWorkers, Store: timedStore{st, rec},
		})
		cfg.Run = func(ctx context.Context, tag string, c scenario.Config) (*runner.Results, error) {
			defer rec.end(rec.begin("batch.run", batch.Key(c)))
			res, err := exec.RunCtx(ctx, tag, c)
			if err == nil {
				fresh.add(res)
			}
			return res, err
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return httptest.NewServer(srv.Handler()), srv, nil
}

// simdSetup times store.Open and server.New on a cold store until the
// first GET /healthz answers 200. The probe goes straight to the handler:
// over loopback TCP the connection set-up alone takes 3x the server's own
// set-up and varies 3x between processes.
func simdSetup(e *env) (time.Duration, error) {
	dir, err := os.MkdirTemp(e.work, "simd-setup-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	st, err := store.Open(dir, simdLRU)
	if err != nil {
		return 0, err
	}
	srv, err := server.New(server.Config{Store: st, Workers: simdWorkers})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	for {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code == http.StatusOK {
			return time.Since(t0), nil
		}
	}
}

func simdBody(e *env) error {
	cfgs, order, err := simdPlan(e.seed)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.work, "simd-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var rec *spanRecorder
	fresh := &freshStats{counts: make(map[string]float64)}
	if e.traced() {
		rec = &spanRecorder{}
	}
	ts, srv, err := newSimd(dir, rec, fresh)
	if err != nil {
		return err
	}
	defer srv.Close()
	defer ts.Close()

	client := ts.Client()
	outs := make([]simdOutcome, len(order))
	var t0 time.Time
	if err := e.measure(func() {
		t0 = time.Now()
		if rec != nil {
			rec.t0 = t0
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < simdClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(order) {
						return
					}
					outs[i] = post(client, ts.URL, fmt.Sprintf("client-%d", c), cfgs[order[i]].body, t0)
				}
			}(c)
		}
		wg.Wait()
	}); err != nil {
		return err
	}

	if err := e.checkSimd(cfgs, order, outs); err != nil {
		return err
	}
	if err := e.serverMetrics(client, ts.URL); err != nil {
		return err
	}
	for k, v := range fresh.counts {
		e.rep.Counts[k] += v
	}
	e.rep.Timings["shard.stall_s"] = float64(fresh.stallNS) / 1e9
	if rec != nil {
		return e.writeSpans(rec, outs)
	}
	return nil
}

// post sends one blocking run request and reads the whole response.
func post(client *http.Client, url, clientID string, body []byte, t0 time.Time) (o simdOutcome) {
	o.start = time.Since(t0)
	defer func() { o.end = time.Since(t0) }()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client", clientID)
	resp, err := client.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	o.status, o.cache, o.key = resp.StatusCode, resp.Header.Get("X-Cache"), resp.Header.Get("X-Content-Key")
	o.body, o.err = io.ReadAll(resp.Body)
	return o
}

// checkSimd verifies the responses and records the distinct results: every
// request answered 200; every response for a key byte-identical to the
// one that computed it; every execution variant's projection equal to its
// model's. Latencies feed the service-path timings.
func (e *env) checkSimd(cfgs []simdConfig, order []int, outs []simdOutcome) error {
	canon := make([][]byte, len(cfgs)) // the computing response (a miss), else the first
	var all, hits, misses []float64
	for i, o := range outs {
		e.rep.Attempted++
		if o.err != nil || o.status != http.StatusOK {
			e.fail(fmt.Sprintf("request %d: status %d: %v: %s", i, o.status, o.err, bytes.TrimSpace(o.body)))
			continue
		}
		all = append(all, o.ms())
		switch o.cache {
		case "hit":
			hits = append(hits, o.ms())
		case "miss":
			misses = append(misses, o.ms())
		}
		if c := order[i]; canon[c] == nil || o.cache == "miss" {
			canon[c] = o.body
		}
	}
	for i, o := range outs {
		if o.status == http.StatusOK && !bytes.Equal(o.body, canon[order[i]]) {
			e.fail(fmt.Sprintf("request %d (%s): body differs from the response that computed key %s", i, o.cache, o.key))
		}
	}
	results := make([]*runner.Results, len(cfgs))
	for c, b := range canon {
		if b == nil {
			continue // every request for it failed; already counted
		}
		var r runner.Results
		if err := json.Unmarshal(b, &r); err != nil {
			e.fail(fmt.Sprintf("config %d: decode result: %v", c, err))
			continue
		}
		results[c] = &r
		label := runLabel(r.Cfg)
		if v := cfgs[c].variant; v != "" {
			label += " " + v
		}
		if bad := checkRun(label, &r); len(bad) > 0 {
			e.rep.Failed++
			e.rep.Failures = append(e.rep.Failures, bad...)
		}
		addCounts(e.rep.Counts, &r)
		if c < simdModels {
			e.fp.add(label, &r)
		}
	}
	for c := simdModels; c < len(cfgs); c++ {
		v, m := results[c], results[cfgs[c].model]
		if v != nil && m != nil && projectionHash(v) != projectionHash(m) {
			e.fail(fmt.Sprintf("%s variant of model %d: results differ from the serial model", cfgs[c].variant, cfgs[c].model))
		}
	}
	p99, err := percentile(all, 0.99)
	if err != nil {
		return err
	}
	e.rep.Timings["server.p99_ms"] = p99
	e.rep.Timings["server.hit_ms_p50"] = median(hits)
	e.rep.Timings["server.miss_ms_p50"] = median(misses)
	return nil
}

// serverMetrics reads the server's own counters from GET /metrics.
func (e *env) serverMetrics(client *http.Client, url string) error {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var m struct{ Executed, Coalesced, Rejected float64 }
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return fmt.Errorf("decode /metrics: %w", err)
	}
	e.rep.Timings["server.sims_per_request"] = m.Executed / simdRequests
	e.rep.Timings["server.coalesced"] = m.Coalesced
	e.rep.Timings["server.rejected"] = m.Rejected
	return nil
}

// writeSpans links the recorded spans — a run to the miss request that
// caused it, store calls to their run — derives the span timings, and
// writes every span as one JSON line.
func (e *env) writeSpans(rec *spanRecorder, outs []simdOutcome) error {
	rec.mu.Lock()
	spans := append([]span(nil), rec.spans...)
	rec.mu.Unlock()
	missReq := make(map[string]int) // key → request span id
	for _, o := range outs {
		s := span{Name: "request", Key: o.key, Cache: o.cache,
			StartMS: float64(o.start) / 1e6, EndMS: float64(o.end) / 1e6}
		spans = append(spans, s)
		if o.cache == "miss" {
			missReq[o.key] = len(spans)
		}
	}
	run := make(map[string]int) // key → run span id
	for i := range spans {
		spans[i].ID = i + 1
		if spans[i].Name == "batch.run" {
			run[spans[i].Key] = spans[i].ID
			spans[i].Parent = missReq[spans[i].Key]
		}
	}
	var runs, gets, puts, waits []float64
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "store.get", "store.put":
			s.Parent = run[s.Key]
			if s.Name == "store.get" {
				gets = append(gets, s.ms())
			} else {
				puts = append(puts, s.ms())
			}
		case "batch.run":
			runs = append(runs, s.ms())
			if p := s.Parent; p > 0 {
				waits = append(waits, spans[p-1].ms()-s.ms())
			}
		}
	}
	e.rep.Timings["batch.run_ms_p50"] = median(runs)
	e.rep.Timings["store.get_ms_p50"] = median(gets)
	e.rep.Timings["store.put_ms_p50"] = median(puts)
	e.rep.Timings["store.get_count"] = float64(len(gets))
	e.rep.Timings["store.put_count"] = float64(len(puts))
	e.rep.Timings["server.wait_ms_p50"] = median(waits)

	f, err := os.Create(e.spans)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
