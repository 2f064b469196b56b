// Package server exposes the simulator as an HTTP/JSON service: POST a
// scenario config, get runner.Results back — from the persistent
// content-addressed store when the scenario has ever been run before
// (by this daemon or by a CLI sharing the store), from a fresh
// simulation otherwise.
//
// The request path is built for heavy concurrent traffic over a
// mostly-repeated workload:
//
//   - store first: a hit is answered inline with the stored canonical
//     bytes, byte-identical to the run that produced them (determinism,
//     DESIGN.md §8, makes the cache exact rather than approximate);
//   - singleflight: N concurrent requests for the same content key
//     admit ONE job and all wait on it — the simulation runs once;
//   - bounded admission: at most QueueDepth distinct jobs may be in
//     flight, at most PerClient of them owned by one client token;
//     beyond either limit the request gets 429 with Retry-After, so
//     overload degrades into fast, explicit backpressure instead of an
//     unbounded goroutine pile;
//   - blocking or async: callers either wait (bounded by ?wait=) for
//     the result, or take a 202 + poll URL immediately and fetch the
//     result from GET /v1/result/{key} when it lands.
//
// Endpoints: POST /v1/run, GET /v1/result/{key}, GET /v1/jobs,
// POST /v1/generate, GET /healthz, GET /metrics.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"ecgrid/internal/batch"
	"ecgrid/internal/runner"
	"ecgrid/internal/scenario"
	"ecgrid/internal/store"
)

// RunFunc executes one simulation. The server stores a successful
// result itself; a RunFunc need not. The default is batch.RunOnce
// (panic-isolated, ignores ctx); tests substitute their own.
type RunFunc func(ctx context.Context, tag string, cfg scenario.Config) (*runner.Results, error)

// Config assembles a Server.
type Config struct {
	// Store is the persistent result store. Required.
	Store *store.Store
	// Workers caps concurrently executing simulations; <= 0 uses
	// GOMAXPROCS.
	Workers int
	// QueueDepth caps distinct in-flight jobs (queued + running);
	// <= 0 uses 64. Admission beyond it answers 429.
	QueueDepth int
	// PerClient caps in-flight jobs owned by one client token, so one
	// client cannot occupy the whole queue; <= 0 uses
	// max(1, QueueDepth/4).
	PerClient int
	// MaxHosts rejects configs whose total host count exceeds it
	// (cmd/simd's -max-n guardrail); <= 0 disables the check.
	MaxHosts int
	// RunTimeout bounds one job from admission to completion; <= 0
	// leaves jobs unbounded. A simulation cannot be preempted
	// mid-event-loop, so the timeout only fails a job still waiting for
	// a worker slot; a run that has started completes and is stored.
	RunTimeout time.Duration
	// MaxWait caps how long a blocking request may hold its connection
	// before being converted to 202 + poll URL; <= 0 uses 120 s.
	MaxWait time.Duration
	// Run overrides the execution function (tests). nil uses
	// batch.RunOnce.
	Run RunFunc
}

// job is one admitted, in-flight simulation: the singleflight unit.
type job struct {
	key      string
	tag      string
	client   string
	cfg      scenario.Config
	enqueued time.Time

	// done closes after bytes/err are set.
	done  chan struct{}
	bytes []byte
	err   error
}

// Server implements the HTTP service. Create with New, serve Handler().
type Server struct {
	cfg      Config
	store    *store.Store
	run      RunFunc
	sem      chan struct{} // worker slots
	baseCtx  context.Context
	cancel   context.CancelFunc
	mux      *http.ServeMux
	met      *metricsSet
	maxWait  time.Duration
	queueCap int
	perCap   int

	mu        sync.Mutex
	jobs      map[string]*job
	perClient map[string]int
	closed    bool           // set by Close; admit refuses new jobs
	running   sync.WaitGroup // one count per runJob goroutine
}

// New builds a server over the given store.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: Config.Store is required")
	}
	queueCap := cfg.QueueDepth
	if queueCap <= 0 {
		queueCap = 64
	}
	perCap := cfg.PerClient
	if perCap <= 0 {
		perCap = queueCap / 4
		if perCap < 1 {
			perCap = 1
		}
	}
	maxWait := cfg.MaxWait
	if maxWait <= 0 {
		maxWait = 120 * time.Second
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		store:     cfg.Store,
		sem:       make(chan struct{}, workers),
		baseCtx:   baseCtx,
		cancel:    cancel,
		maxWait:   maxWait,
		queueCap:  queueCap,
		perCap:    perCap,
		jobs:      make(map[string]*job),
		perClient: make(map[string]int),
	}
	s.run = cfg.Run
	if s.run == nil {
		s.run = runOnce
	}
	s.met = newMetricsSet(
		func() int {
			s.mu.Lock()
			defer s.mu.Unlock()
			return len(s.jobs)
		},
		func() int {
			n, err := cfg.Store.Len()
			if err != nil {
				return -1
			}
			return n
		},
	)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.timed("run", s.handleRun))
	mux.HandleFunc("POST /v1/generate", s.timed("generate", s.handleGenerate))
	mux.HandleFunc("GET /v1/result/{key}", s.timed("result", s.handleResult))
	mux.HandleFunc("GET /v1/jobs", s.timed("jobs", s.handleJobs))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close cancels the server's base context, failing jobs still waiting
// for worker slots, refuses new jobs, and returns once every job it
// started has finished, including its store write. Call it after
// draining the HTTP listener (http.Server.Shutdown), not before:
// in-flight simulations cannot be preempted, so Close waits for them,
// and their waiters should be allowed to collect results.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.running.Wait()
}

// timed wraps a handler with its endpoint latency histogram.
func (s *Server) timed(name string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.met.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h(w, r)
		hist.Observe(time.Since(t0))
	}
}

// writeJSON sends v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	b = append(b, '\n')
	w.Write(b) //simlint:err response write after headers; a gone client leaves nothing to do
}

// fail sends {"error": …} with the given status.
func fail(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// clientToken identifies the requester for per-client fairness: the
// X-Client header, else the ?client query parameter, else the remote
// host. Tokens are advisory (fairness, not auth).
func clientToken(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	if c := r.URL.Query().Get("client"); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// decodeConfig builds the scenario from the request: an optional
// ?base=<protocol> starting point (scenario.Default) with the JSON body
// layered on top. Unknown fields are rejected — a typoed knob must be a
// 400, not a silently different simulation.
func decodeConfig(r *http.Request) (scenario.Config, error) {
	var cfg scenario.Config
	if base := r.URL.Query().Get("base"); base != "" {
		p, err := scenario.ParseProtocol(base)
		if err != nil {
			return cfg, err
		}
		cfg = scenario.Default(p)
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20+1))
	if err != nil {
		return cfg, fmt.Errorf("read body: %w", err)
	}
	if len(body) > 1<<20 {
		return cfg, errors.New("config body exceeds 1 MiB")
	}
	if len(bytes.TrimSpace(body)) == 0 {
		if r.URL.Query().Get("base") == "" {
			return cfg, errors.New("empty body and no ?base protocol")
		}
		return cfg, nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("parse config: %w", err)
	}
	return cfg, nil
}

// totalHosts is the population the -max-n guardrail meters: simulation
// cost scales with every host, endpoint or not.
func totalHosts(cfg scenario.Config) int {
	n := cfg.Hosts
	if cfg.Protocol == scenario.GAF {
		n += cfg.EndpointHosts
	}
	return n
}

// parseWait reads ?wait=<duration>: how long the request may block for
// a fresh result before converting to 202 + poll URL. Absent uses the
// server's MaxWait; "0" asks for pure async; anything above MaxWait is
// clamped.
func (s *Server) parseWait(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("wait")
	if raw == "" {
		return s.maxWait, nil
	}
	if raw == "0" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("bad wait %q: %w", raw, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("negative wait %q", raw)
	}
	if d > s.maxWait {
		d = s.maxWait
	}
	return d, nil
}

// handleRun is POST /v1/run.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	cfg, err := decodeConfig(r)
	if err != nil {
		fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	// scenario.Validate is the API's 4xx surface: every config mistake a
	// CLI would exit(2) on becomes a 400 with the same message.
	if err := cfg.Validate(); err != nil {
		fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.cfg.MaxHosts > 0 && totalHosts(cfg) > s.cfg.MaxHosts {
		fail(w, http.StatusBadRequest,
			"config asks for %d hosts; this server caps runs at %d (-max-n)",
			totalHosts(cfg), s.cfg.MaxHosts)
		return
	}
	wait, err := s.parseWait(r)
	if err != nil {
		fail(w, http.StatusBadRequest, "%v", err)
		return
	}

	key := batch.Key(cfg)
	if b, ok, err := s.store.GetBytes(key); err == nil && ok {
		s.met.hits.Add(1)
		s.writeResult(w, key, "hit", b)
		return
	}

	j, joined, reason := s.admit(key, clientToken(r), cfg)
	if j == nil {
		s.met.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		fail(w, http.StatusTooManyRequests, "%s", reason)
		return
	}
	cache := "miss"
	if joined {
		cache = "join"
		s.met.coalesced.Add(1)
	} else {
		s.met.misses.Add(1)
	}

	if wait == 0 {
		s.writeAccepted(w, key)
		return
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-j.done:
		if j.err != nil {
			status := http.StatusInternalServerError
			if errors.Is(j.err, context.DeadlineExceeded) {
				status = http.StatusGatewayTimeout
			}
			fail(w, status, "run %s: %v", key, j.err)
			return
		}
		s.writeResult(w, key, cache, j.bytes)
	case <-timer.C:
		// Still running; hand out the poll URL. The job keeps going.
		s.writeAccepted(w, key)
	case <-r.Context().Done():
		// Caller hung up; nothing to write. The job keeps going and its
		// result lands in the store for the retry.
	}
}

// handleGenerate is POST /v1/generate: validate a scenario — typically
// one carrying a generator spec — and return its canonical config plus
// the batch key, without running anything. Clients use it to preview
// what a spec expands to and which store entry a run would land under;
// the key here always equals the key a later POST /v1/run computes.
func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	cfg, err := decodeConfig(r)
	if err != nil {
		fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := cfg.Validate(); err != nil {
		fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"key":    batch.Key(cfg),
		"config": cfg,
	})
}

// admit joins an in-flight job for key, or creates one within the queue
// and per-client bounds. nil means rejected, with the reason.
func (s *Server) admit(key, client string, cfg scenario.Config) (j *job, joined bool, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[key]; ok {
		// Coalesced requests consume no queue slot: they add waiters,
		// not work.
		return j, true, ""
	}
	if s.closed {
		return nil, false, "server is shutting down"
	}
	if len(s.jobs) >= s.queueCap {
		return nil, false, fmt.Sprintf("queue full (%d jobs in flight)", len(s.jobs))
	}
	if s.perClient[client] >= s.perCap {
		return nil, false, fmt.Sprintf("client %q already owns %d in-flight jobs (limit %d)",
			client, s.perClient[client], s.perCap)
	}
	j = &job{
		key:      key,
		tag:      cfg.String(),
		client:   client,
		cfg:      cfg,
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
	s.jobs[key] = j
	s.perClient[client]++
	s.running.Add(1)
	go s.runJob(j)
	return j, false, ""
}

// runJob owns one admitted job: acquire a worker slot, execute, store,
// publish, release.
func (s *Server) runJob(j *job) {
	defer s.running.Done()
	defer func() {
		s.mu.Lock()
		delete(s.jobs, j.key)
		if s.perClient[j.client]--; s.perClient[j.client] <= 0 {
			delete(s.perClient, j.client)
		}
		s.mu.Unlock()
		if j.err != nil {
			s.met.failed.Add(1)
		} else {
			s.met.executed.Add(1)
		}
		close(j.done)
	}()

	ctx := s.baseCtx
	if s.cfg.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RunTimeout)
		defer cancel()
	}
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		j.err = ctx.Err()
		return
	}
	defer func() { <-s.sem }()
	s.met.running.Add(1)
	defer s.met.running.Add(-1)

	res, err := s.run(ctx, j.tag, j.cfg)
	if err == nil {
		err = s.store.Put(j.key, res)
	}
	if err != nil {
		j.err = err
		return
	}
	// Serve the stored canonical bytes, so hit and miss responses are
	// byte-identical.
	b, ok, err := s.store.GetBytes(j.key)
	if err == nil && !ok {
		err = fmt.Errorf("result for %s vanished from the store", j.key)
	}
	j.bytes, j.err = b, err
}

// runOnce is the default RunFunc. A running simulation cannot be
// preempted, so it ignores ctx.
func runOnce(_ context.Context, _ string, cfg scenario.Config) (*runner.Results, error) {
	return batch.RunOnce(cfg)
}

// writeResult sends stored canonical result bytes.
func (s *Server) writeResult(w http.ResponseWriter, key, cache string, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cache)
	w.Header().Set("X-Content-Key", key)
	w.WriteHeader(http.StatusOK)
	w.Write(b) //simlint:err response write after headers; a gone client leaves nothing to do
}

// writeAccepted sends 202 with the poll URL.
func (s *Server) writeAccepted(w http.ResponseWriter, key string) {
	w.Header().Set("Location", "/v1/result/"+key)
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusAccepted, map[string]string{
		"key":    key,
		"status": "running",
		"poll":   "/v1/result/" + key,
	})
}

// handleResult is GET /v1/result/{key}.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !store.ValidKey(key) {
		fail(w, http.StatusBadRequest, "malformed content key %q", key)
		return
	}
	if b, ok, err := s.store.GetBytes(key); err != nil {
		fail(w, http.StatusInternalServerError, "%v", err)
		return
	} else if ok {
		s.met.hits.Add(1)
		s.writeResult(w, key, "hit", b)
		return
	}
	s.mu.Lock()
	_, inflight := s.jobs[key]
	s.mu.Unlock()
	if inflight {
		s.writeAccepted(w, key)
		return
	}
	fail(w, http.StatusNotFound, "no result for key %s (POST /v1/run to compute it)", key)
}

// jobInfo is one row of GET /v1/jobs.
type jobInfo struct {
	Key        string  `json:"key"`
	Tag        string  `json:"tag"`
	Client     string  `json:"client"`
	AgeSeconds float64 `json:"age_seconds"`
}

// handleJobs is GET /v1/jobs: a snapshot of in-flight jobs, oldest
// first.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	s.mu.Lock()
	infos := make([]jobInfo, 0, len(s.jobs))
	for _, j := range s.jobs {
		infos = append(infos, jobInfo{
			Key:        j.key,
			Tag:        j.tag,
			Client:     j.client,
			AgeSeconds: now.Sub(j.enqueued).Seconds(),
		})
	}
	s.mu.Unlock()
	sort.Slice(infos, func(i, k int) bool {
		if infos[i].AgeSeconds != infos[k].AgeSeconds {
			return infos[i].AgeSeconds > infos[k].AgeSeconds
		}
		return infos[i].Key < infos[k].Key
	})
	writeJSON(w, http.StatusOK, map[string]any{"count": len(infos), "jobs": infos})
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n") //simlint:err health probe response; a gone client leaves nothing to do
}

// handleMetrics is GET /metrics: the expvar tree as one JSON object.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, s.met.top.String()) //simlint:err metrics response; a gone client leaves nothing to do
	io.WriteString(w, "\n")               //simlint:err metrics response; a gone client leaves nothing to do
}
