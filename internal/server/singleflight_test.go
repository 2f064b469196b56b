package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecgrid/internal/batch"
	"ecgrid/internal/runner"
	"ecgrid/internal/scenario"
	"ecgrid/internal/store"
)

// TestSingleflightAndRestart is the acceptance proof for the serving
// layer:
//
//  1. N identical concurrent POST /v1/run requests against a COLD store
//     execute the simulation exactly once, and every response is
//     byte-identical;
//  2. a "restarted" daemon (fresh Server and Store over the same
//     directory) serves the same key from disk without recomputing.
//
// The run function is the default batch.RunOnce wrapped in an
// execution counter plus a gate, with no deduplication of its own, so
// the single execution is the server's singleflight alone. The gate
// holds that execution open until the server's own metrics confirm the
// other N−1 requests have coalesced onto it, making the "all N arrived
// before completion" premise deterministic instead of timing-dependent.
func TestSingleflightAndRestart(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	cfg := scenario.Default(scenario.ECGRID)
	cfg.Hosts = 10
	cfg.Flows = 2
	cfg.Duration = 15
	cfg.Seed = 42
	key := batch.Key(cfg)

	var executions atomic.Int64
	gate := make(chan struct{})

	st, err := store.Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	counted := func(ctx context.Context, tag string, c scenario.Config) (*runner.Results, error) {
		executions.Add(1)
		<-gate
		return batch.RunOnce(c)
	}
	srv, err := New(Config{Store: st, Workers: 2, QueueDepth: 8, Run: counted})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer ts.Close()

	body, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	responses := make([][]byte, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			statuses[i] = resp.StatusCode
			responses[i] = readAll(t, resp)
		}(i)
	}

	// Hold the one execution open until all N requests are accounted
	// for: 1 miss (the job creator) + N−1 coalesced joiners.
	deadline := time.Now().Add(10 * time.Second)
	for srv.met.misses.Value()+srv.met.coalesced.Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("requests never coalesced: misses=%d coalesced=%d",
				srv.met.misses.Value(), srv.met.coalesced.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.met.misses.Value(); got != 1 {
		t.Fatalf("misses = %d, want 1 (exactly one admitted job)", got)
	}
	close(gate)
	wg.Wait()

	// Exactly one simulation ran, and all N responses are 200 and
	// byte-identical.
	if got := executions.Load(); got != 1 {
		t.Fatalf("executions = %d, want exactly 1", got)
	}
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, statuses[i])
		}
		if !bytes.Equal(responses[i], responses[0]) {
			t.Fatalf("request %d: response differs from request 0", i)
		}
	}
	if len(responses[0]) == 0 {
		t.Fatal("empty responses")
	}

	// "Restart": a fresh store handle (cold LRU) and a fresh server
	// over the same directory. The same request must be a pure disk
	// hit: zero executions, identical bytes.
	ts.Close()
	srv.Close()

	var executions2 atomic.Int64
	st2, err := store.Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	counted2 := func(ctx context.Context, tag string, c scenario.Config) (*runner.Results, error) {
		executions2.Add(1)
		return batch.RunOnce(c)
	}
	srv2, err := New(Config{Store: st2, Workers: 2, QueueDepth: 8, Run: counted2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer srv2.Close()
	defer ts2.Close()

	resp, err := http.Post(ts2.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("post-restart X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(got, responses[0]) {
		t.Fatal("post-restart response differs from the original computation")
	}
	if resp.Header.Get("X-Content-Key") != key {
		t.Fatalf("served key %q, want %q", resp.Header.Get("X-Content-Key"), key)
	}
	if executions2.Load() != 0 {
		t.Fatalf("restart recomputed the result (%d executions)", executions2.Load())
	}
}
