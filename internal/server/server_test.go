package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ecgrid/internal/runner"
	"ecgrid/internal/scenario"
	"ecgrid/internal/store"
)

// smallCfg is a scenario that simulates in milliseconds.
func smallCfg(seed int64) scenario.Config {
	cfg := scenario.Default(scenario.ECGRID)
	cfg.Hosts = 8
	cfg.Flows = 2
	cfg.Duration = 10
	cfg.Seed = seed
	return cfg
}

// newTestServer builds a Server over a fresh store, wrapped in an
// httptest listener. mutate adjusts the Config before New.
func newTestServer(t *testing.T, mutate func(*Config)) (*httptest.Server, *Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Store: st, Workers: 4, QueueDepth: 8, MaxWait: 30 * time.Second}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts, srv, st
}

// postRun POSTs cfg to /v1/run and returns the response.
func postRun(t *testing.T, ts *httptest.Server, cfg scenario.Config, query string) *http.Response {
	t.Helper()
	body, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/run"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRunMissThenHit(t *testing.T) {
	ts, _, st := newTestServer(t, nil)
	cfg := smallCfg(1)

	resp := postRun(t, ts, cfg, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("cold run X-Cache = %q, want miss", got)
	}
	key := resp.Header.Get("X-Content-Key")
	first := readAll(t, resp)

	resp2 := postRun(t, ts, cfg, "")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm run status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("warm run X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(readAll(t, resp2), first) {
		t.Fatal("hit response differs from miss response")
	}

	// The result endpoint serves the same bytes.
	resp3, err := http.Get(ts.URL + "/v1/result/" + key)
	if err != nil {
		t.Fatal(err)
	}
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", resp3.StatusCode)
	}
	if !bytes.Equal(readAll(t, resp3), first) {
		t.Fatal("GET /v1/result differs from POST /v1/run response")
	}

	// And the store holds exactly one entry — the same bytes again.
	if n, err := st.Len(); err != nil || n != 1 {
		t.Fatalf("store Len = %d, %v; want 1", n, err)
	}
	b, ok, err := st.GetBytes(key)
	if err != nil || !ok || !bytes.Equal(b, first) {
		t.Fatal("store bytes differ from served bytes")
	}

	// Responses decode back into runner.Results.
	var res runner.Results
	if err := json.Unmarshal(first, &res); err != nil {
		t.Fatalf("response is not a runner.Results: %v", err)
	}
	if res.Sent == 0 {
		t.Fatal("decoded results carry no traffic")
	}
}

func TestRunValidationSurface(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)

	post := func(body, query string) (*http.Response, string) {
		resp, err := http.Post(ts.URL+"/v1/run"+query, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(readAll(t, resp))
	}

	// Malformed JSON.
	if resp, _ := post("{not json", ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON → %d, want 400", resp.StatusCode)
	}
	// Unknown field: a typoed knob must not silently simulate something
	// else.
	if resp, body := post(`{"Hostz": 50}`, "?base=ecgrid"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field → %d (%s), want 400", resp.StatusCode, body)
	}
	// scenario.Validate as the 4xx surface: the CLI's exit(2) message is
	// the HTTP 400 message.
	resp, body := post(`{"Hosts": -1}`, "?base=ecgrid")
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "scenario:") {
		t.Errorf("invalid config → %d (%s), want 400 with scenario error", resp.StatusCode, body)
	}
	// Execution strategy is not part of the API: a runtime-only field,
	// or a knob that no longer exists, is an unknown field.
	for _, body := range []string{
		`{"Shards": 2}`,
		`{"HeapScheduler": true}`,
		`{"Radio": {"BruteForce": true}}`,
		`{"Radio": {"NoRxCache": true}}`,
		`{"Radio": {"IndexCellM": 0.05}}`,
	} {
		if resp, msg := post(body, "?base=ecgrid"); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s → %d (%s), want 400", body, resp.StatusCode, msg)
		}
	}
	// A radio parameter the channel cannot run with is a config error,
	// not a panic inside the simulation.
	resp, body = post(`{"Radio": {"Range": 0}}`, "?base=ecgrid")
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "scenario:") {
		t.Errorf("zero radio range → %d (%s), want 400 with scenario error", resp.StatusCode, body)
	}
	// Unknown base protocol.
	if resp, _ := post("", "?base=ospf"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown base → %d, want 400", resp.StatusCode)
	}
	// Empty body, no base.
	if resp, _ := post("", ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty request → %d, want 400", resp.StatusCode)
	}
	// Bad wait value.
	if resp, _ := post("", "?base=ecgrid&wait=soon"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad wait → %d, want 400", resp.StatusCode)
	}
}

// TestProtocolOverrideRejected: a protocol override that would panic in
// the protocol's constructor is a 400 naming the field, from both
// /v1/run and /v1/generate, and nothing is admitted or stored.
func TestProtocolOverrideRejected(t *testing.T) {
	ts, srv, st := newTestServer(t, nil)
	for _, tc := range []struct{ base, body, field string }{
		{"ecgrid", `{"ECGRIDOptions":{}}`, "ECGRIDOptions"},
		{"ecgrid", `{"ECGRIDOptions":{"HelloPeriod":0}}`, "ECGRIDOptions"},
		{"grid", `{"ECGRIDOptions":{}}`, "ECGRIDOptions"},
		{"gaf", `{"GAFOptions":{}}`, "GAFOptions"},
		{"aodv", `{"GAFOptions":{}}`, "GAFOptions"},
	} {
		for _, ep := range []string{"/v1/run", "/v1/generate"} {
			resp, err := http.Post(ts.URL+ep+"?base="+tc.base, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body := string(readAll(t, resp))
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, tc.field) {
				t.Errorf("%s %s on %s → %d (%s), want 400 naming %s",
					ep, tc.body, tc.base, resp.StatusCode, body, tc.field)
			}
		}
	}
	if n, err := st.Len(); err != nil || n != 0 {
		t.Fatalf("store Len = %d, %v; want 0", n, err)
	}
	if got := srv.met.misses.Value(); got != 0 {
		t.Fatalf("misses = %d, want 0 (nothing admitted)", got)
	}
}

func TestMaxHostsGuardrail(t *testing.T) {
	ts, _, _ := newTestServer(t, func(c *Config) { c.MaxHosts = 10 })
	resp := postRun(t, ts, smallCfg(1), "") // 8 hosts: allowed
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("within guardrail → %d", resp.StatusCode)
	}
	readAll(t, resp)

	big := smallCfg(2)
	big.Hosts = 50
	resp2 := postRun(t, ts, big, "")
	body := string(readAll(t, resp2))
	if resp2.StatusCode != http.StatusBadRequest || !strings.Contains(body, "max-n") {
		t.Fatalf("beyond guardrail → %d (%s), want 400 mentioning max-n", resp2.StatusCode, body)
	}
}

// blockingRun is a RunFunc stand-in whose executions block until
// released, so tests can hold jobs in flight deterministically.
type blockingRun struct {
	release chan struct{}
	started chan string // receives each started job's tag
}

func newBlockingRun() *blockingRun {
	return &blockingRun{release: make(chan struct{}), started: make(chan string, 64)}
}

func (b *blockingRun) run(ctx context.Context, tag string, cfg scenario.Config) (*runner.Results, error) {
	b.started <- tag
	select {
	case <-b.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &runner.Results{Cfg: cfg, Sent: 1, Delivered: 1}, nil
}

func TestAsyncAcceptedAndPoll(t *testing.T) {
	br := newBlockingRun()
	ts, _, _ := newTestServer(t, func(c *Config) { c.Run = br.run })
	cfg := smallCfg(3)

	resp := postRun(t, ts, cfg, "?wait=0")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit → %d, want 202", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if loc == "" {
		t.Fatal("202 without Location")
	}
	readAll(t, resp)

	// While the job runs, the poll URL answers 202 and /v1/jobs lists it.
	<-br.started
	resp2, err := http.Get(ts.URL + loc)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("poll while running → %d, want 202", resp2.StatusCode)
	}
	readAll(t, resp2)

	jr, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var jobs struct {
		Count int `json:"count"`
		Jobs  []struct {
			Key    string `json:"key"`
			Client string `json:"client"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(readAll(t, jr), &jobs); err != nil {
		t.Fatal(err)
	}
	if jobs.Count != 1 || len(jobs.Jobs) != 1 {
		t.Fatalf("jobs = %+v, want one in-flight job", jobs)
	}

	// Release; the poll URL converges to 200.
	close(br.release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp3, err := http.Get(ts.URL + loc)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp3)
		if resp3.StatusCode == http.StatusOK {
			var res runner.Results
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatalf("poll result decode: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("poll never converged; last status %d", resp3.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	br := newBlockingRun()
	ts, _, _ := newTestServer(t, func(c *Config) {
		c.Run = br.run
		c.QueueDepth = 2
		c.PerClient = 2
		c.Workers = 1
	})
	defer close(br.release)

	// Two distinct jobs fill the queue (async, so the requests return).
	for seed := int64(1); seed <= 2; seed++ {
		resp := postRun(t, ts, smallCfg(seed), "?wait=0&client=a")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d → %d, want 202", seed, resp.StatusCode)
		}
		readAll(t, resp)
	}
	// Third distinct job: queue full → 429 + Retry-After.
	resp := postRun(t, ts, smallCfg(3), "?wait=0&client=b")
	body := string(readAll(t, resp))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over queue → %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// But an identical re-submission of an in-flight config coalesces:
	// no queue slot needed, no 429.
	resp2 := postRun(t, ts, smallCfg(1), "?wait=0&client=b")
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("coalescing resubmit → %d, want 202", resp2.StatusCode)
	}
	readAll(t, resp2)
}

func TestPerClientFairness(t *testing.T) {
	br := newBlockingRun()
	ts, _, _ := newTestServer(t, func(c *Config) {
		c.Run = br.run
		c.QueueDepth = 8
		c.PerClient = 2
		c.Workers = 1
	})
	defer close(br.release)

	// Client a saturates its own allowance…
	for seed := int64(1); seed <= 2; seed++ {
		resp := postRun(t, ts, smallCfg(seed), "?wait=0&client=a")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("a's job %d → %d", seed, resp.StatusCode)
		}
		readAll(t, resp)
	}
	resp := postRun(t, ts, smallCfg(3), "?wait=0&client=a")
	body := string(readAll(t, resp))
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(body, "client") {
		t.Fatalf("a over per-client limit → %d (%s), want 429", resp.StatusCode, body)
	}
	// …while client b still gets in: the queue was not monopolized.
	resp2 := postRun(t, ts, smallCfg(4), "?wait=0&client=b")
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("b blocked by a's flood → %d, want 202", resp2.StatusCode)
	}
	readAll(t, resp2)
}

// TestCloseWaitsForRunningJobs holds one simulation in flight, calls
// Close, and releases the simulation only afterwards: Close must not
// return until the job has written its result to the store. (A job
// outliving Close used to write into a store whose directory the owner
// was already deleting.)
func TestCloseWaitsForRunningJobs(t *testing.T) {
	// started has room for every job the test could submit, so a job
	// wrongly admitted during Close cannot block on it.
	started, release := make(chan string, 2), make(chan struct{})
	var releaseOnce sync.Once
	releaseJobs := func() { releaseOnce.Do(func() { close(release) }) }
	ts, srv, st := newTestServer(t, func(c *Config) {
		// Like a real simulation, this run cannot be preempted: it
		// ignores ctx.
		c.Run = func(ctx context.Context, tag string, cfg scenario.Config) (*runner.Results, error) {
			started <- tag
			<-release
			return &runner.Results{Cfg: cfg, Sent: 1, Delivered: 1}, nil
		}
	})
	// Registered after the server's cleanup, so it runs first: a failed
	// assertion must not leave the cleanup's Close waiting forever.
	t.Cleanup(releaseJobs)
	resp := postRun(t, ts, smallCfg(1), "?wait=0")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit → %d, want 202", resp.StatusCode)
	}
	var accepted struct{ Key string }
	if err := json.Unmarshal(readAll(t, resp), &accepted); err != nil {
		t.Fatal(err)
	}
	<-started

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a job was still running")
	case <-time.After(100 * time.Millisecond):
	}
	// A closing server admits nothing new.
	resp2 := postRun(t, ts, smallCfg(2), "?wait=0")
	if body := readAll(t, resp2); resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit during Close → %d (%s), want 429", resp2.StatusCode, body)
	}

	releaseJobs()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned after the job was released")
	}
	if _, ok, err := st.GetBytes(accepted.Key); err != nil || !ok {
		t.Fatalf("Close returned before the job stored its result (ok=%v, err=%v)", ok, err)
	}
}

func TestResultEndpointErrors(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/result/not-a-key")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed key → %d, want 400", resp.StatusCode)
	}
	readAll(t, resp)

	resp2, err := http.Get(ts.URL + fmt.Sprintf("/v1/result/%064x", 1))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key → %d, want 404", resp2.StatusCode)
	}
	readAll(t, resp2)
}

func TestHealthzAndMetrics(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || string(readAll(t, resp)) != "ok\n" {
		t.Fatal("healthz not ok")
	}

	// Generate one miss and one hit, then read the counters back.
	readAll(t, postRun(t, ts, smallCfg(1), ""))
	readAll(t, postRun(t, ts, smallCfg(1), ""))

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Executed  int64 `json:"executed"`
		InFlight  int64 `json:"in_flight"`
		Queue     int64 `json:"queue_depth"`
		StoreLen  int64 `json:"store_entries"`
		Latencies struct {
			Run struct {
				Count uint64 `json:"count"`
			} `json:"run"`
		} `json:"latency"`
	}
	if err := json.Unmarshal(readAll(t, mr), &m); err != nil {
		t.Fatalf("metrics is not JSON: %v", err)
	}
	if m.Hits != 1 || m.Misses != 1 || m.Executed != 1 {
		t.Fatalf("metrics = %+v, want 1 hit / 1 miss / 1 executed", m)
	}
	if m.StoreLen != 1 {
		t.Fatalf("store_entries = %d, want 1", m.StoreLen)
	}
	if m.Latencies.Run.Count != 2 {
		t.Fatalf("run latency count = %d, want 2", m.Latencies.Run.Count)
	}
}
