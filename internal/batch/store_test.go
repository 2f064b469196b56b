package batch

import (
	"context"
	"errors"
	"sync"
	"testing"

	"ecgrid/internal/runner"
	"ecgrid/internal/scenario"
)

// memStore is an in-memory ResultStore that counts traffic, standing in
// for *store.Store (whose own tests live in internal/store; batch only
// sees the interface).
type memStore struct {
	mu   sync.Mutex
	m    map[string]*runner.Results
	puts int
	hits int
	gets int
}

func newMemStore() *memStore { return &memStore{m: make(map[string]*runner.Results)} }

func (s *memStore) Get(key string) (*runner.Results, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	res, ok := s.m[key]
	if ok {
		s.hits++
	}
	return res, ok, nil
}

func (s *memStore) Put(key string, res *runner.Results) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = res
	s.puts++
	return nil
}

// TestRunStoreBacked: a second batch over the same store executes
// nothing and reproduces the first batch's results exactly.
func TestRunStoreBacked(t *testing.T) {
	jobs := tinyJobs()
	st := newMemStore()

	first, sum := Run(context.Background(), jobs, Options{Workers: 4, Store: st})
	if err := sum.Err(); err != nil {
		t.Fatal(err)
	}
	if sum.Executed != len(jobs) || sum.Cached != 0 {
		t.Fatalf("cold batch: executed=%d cached=%d, want %d/0", sum.Executed, sum.Cached, len(jobs))
	}
	if st.puts != len(jobs) {
		t.Fatalf("store puts = %d, want %d", st.puts, len(jobs))
	}

	second, sum2 := Run(context.Background(), jobs, Options{Workers: 4, Store: st})
	if err := sum2.Err(); err != nil {
		t.Fatal(err)
	}
	if sum2.Executed != 0 || sum2.Cached != len(jobs) {
		t.Fatalf("warm batch: executed=%d cached=%d, want 0/%d", sum2.Executed, sum2.Cached, len(jobs))
	}
	for i := range jobs {
		if !second[i].Cached {
			t.Errorf("job %d not marked cached", i)
		}
		if string(marshal(t, first[i].Res)) != string(marshal(t, second[i].Res)) {
			t.Errorf("job %d (%s): cached results differ from executed ones", i, jobs[i].Tag)
		}
	}
}

// TestRunStoreUncachedHitsCachedEntry: the receiver scan is execution
// strategy, not model, so rerunning a stored config on the BruteForce
// reference scan (which reads every station's position for every frame,
// instead of the spatial index and the position snapshots) is a store
// hit — one simulation in total, however the model is run.
func TestRunStoreUncachedHitsCachedEntry(t *testing.T) {
	st := newMemStore()
	indexed := tinyCfg(scenario.ECGRID, 4)
	first, sum := Run(context.Background(), []Job{{Tag: "indexed", Cfg: indexed}}, Options{Workers: 1, Store: st})
	if err := sum.Err(); err != nil {
		t.Fatal(err)
	}

	brute := indexed
	brute.Radio.BruteForce = true
	second, sum2 := Run(context.Background(), []Job{{Tag: "bruteforce", Cfg: brute}}, Options{Workers: 1, Store: st})
	if err := sum2.Err(); err != nil {
		t.Fatal(err)
	}
	if got := sum.Executed + sum2.Executed; got != 1 || sum2.Cached != 1 || st.puts != 1 {
		t.Fatalf("executed %d simulations (cached %d, puts %d), want 1 (1, 1)", got, sum2.Cached, st.puts)
	}
	if second[0].Key != first[0].Key {
		t.Fatalf("BruteForce key %s, want the indexed run's key %s", second[0].Key, first[0].Key)
	}
	if string(marshal(t, first[0].Res)) != string(marshal(t, second[0].Res)) {
		t.Fatal("BruteForce rerun served different results")
	}
}

// TestRunStoreSkipsFailedJobs: a failed run is never stored, so a rerun
// on the same store executes it again — and, the simulator being
// deterministic, it fails the same way — while the good jobs come back
// from the store.
func TestRunStoreSkipsFailedJobs(t *testing.T) {
	bad := tinyCfg(scenario.ECGRID, 1)
	bad.Hosts = -1 // fails Validate, so runner.Run panics
	jobs := []Job{
		{Tag: "good-1", Cfg: tinyCfg(scenario.ECGRID, 1)},
		{Tag: "bad", Cfg: bad},
		{Tag: "good-2", Cfg: tinyCfg(scenario.ECGRID, 2)},
	}
	st := newMemStore()
	first, sum := Run(context.Background(), jobs, Options{Workers: 2, Store: st})
	if sum.Failed != 1 || sum.Executed != 2 {
		t.Fatalf("cold batch = %+v, want 1 failed / 2 executed", sum)
	}
	if _, ok := st.m[Key(bad)]; ok || st.puts != 2 {
		t.Fatalf("store holds the failed run (puts = %d, want 2)", st.puts)
	}

	second, sum2 := Run(context.Background(), jobs, Options{Workers: 2, Store: st})
	if sum2.Cached != 2 || sum2.Executed != 0 || sum2.Failed != 1 {
		t.Fatalf("warm batch = %+v, want 2 cached / 0 executed / 1 failed", sum2)
	}
	if second[1].Cached || second[1].Res != nil {
		t.Fatalf("failed job served from the store: %+v", second[1])
	}
	var pe1, pe2 *PanicError
	if !errors.As(first[1].Err, &pe1) || !errors.As(second[1].Err, &pe2) {
		t.Fatalf("bad job errors %v / %v, want *PanicError twice", first[1].Err, second[1].Err)
	}
	if pe1.Value != pe2.Value {
		t.Fatalf("rerun failed differently: %q, then %q", pe1.Value, pe2.Value)
	}
	for _, i := range []int{0, 2} {
		if !second[i].Cached {
			t.Errorf("job %d (%s) not served from the store", i, jobs[i].Tag)
		}
	}
}

// TestRunDedupesByKey: jobs that share a key run once per batch. A
// repeat is not logged and not read from the store; it gets its first
// job's Res, Err and Cached, keeps its own Index and Tag, and adds
// nothing to the Summary, which counts distinct keys.
func TestRunDedupesByKey(t *testing.T) {
	a, b := tinyCfg(scenario.ECGRID, 1), tinyCfg(scenario.GRID, 1)
	bad := a
	bad.Hosts = -1 // fails Validate, so runner.Run panics
	jobs := []Job{
		{Tag: "a", Cfg: a}, {Tag: "b", Cfg: b}, {Tag: "bad", Cfg: bad},
		{Tag: "a again", Cfg: a}, {Tag: "bad again", Cfg: bad}, {Tag: "b again", Cfg: b},
	}
	repeatOf := map[int]int{3: 0, 4: 2, 5: 1}
	check := func(name string, results []Result) {
		t.Helper()
		for rep, orig := range repeatOf {
			r, o := results[rep], results[orig]
			if r.Index != rep || r.Tag != jobs[rep].Tag || r.Key != o.Key {
				t.Errorf("%s: repeat %d = {%d %q %.8s}, want its own index and tag under key %.8s",
					name, rep, r.Index, r.Tag, r.Key, o.Key)
			}
			if r.Res != o.Res || r.Err != o.Err || r.Cached != o.Cached {
				t.Errorf("%s: repeat %d (%v, %v, cached %v) differs from job %d (%v, %v, cached %v)",
					name, rep, r.Res != nil, r.Err, r.Cached, orig, o.Res != nil, o.Err, o.Cached)
			}
		}
		var pe *PanicError
		if !errors.As(results[4].Err, &pe) {
			t.Errorf("%s: repeated failed job error = %v, want the first run's *PanicError", name, results[4].Err)
		}
	}

	var lines []string
	st := newMemStore()
	opt := Options{Workers: 2, Store: st, Progress: NewSink(func(s string) { lines = append(lines, s) })}
	cold, sum := Run(context.Background(), jobs, opt)
	check("cold", cold)
	if len(lines) != 3 || st.gets != 3 || st.puts != 2 {
		t.Fatalf("cold batch: %d progress lines, %d store reads, %d writes; want 3, 3, 2: %q",
			len(lines), st.gets, st.puts, lines)
	}
	if sum.Total != 3 || sum.Executed != 2 || sum.Failed != 1 || len(sum.FailedJobs) != 1 || sum.FailedJobs[0].Index != 2 {
		t.Fatalf("cold summary = %+v, want 3 distinct keys: 2 executed, 1 failed (job 2)", sum)
	}

	lines = nil
	warm, sum2 := Run(context.Background(), jobs, opt)
	check("warm", warm)
	if len(lines) != 3 || st.gets != 6 || st.puts != 2 {
		t.Fatalf("warm batch: %d progress lines, %d store reads in all, %d writes; want 3, 6, 2: %q",
			len(lines), st.gets, st.puts, lines)
	}
	if sum2.Total != 3 || sum2.Cached != 2 || sum2.Failed != 1 || !warm[3].Cached || !warm[5].Cached {
		t.Fatalf("warm summary = %+v, want 2 cached and 1 failed of 3, repeats cached too", sum2)
	}
}

// TestExecutorStoreBacked: executions land in the store, and a fresh
// executor over the same store serves them without re-running.
func TestExecutorStoreBacked(t *testing.T) {
	st := newMemStore()
	cfg := tinyCfg(scenario.ECGRID, 5)

	x1 := NewExecutor(context.Background(), Options{Workers: 2, Store: st})
	res1, err := x1.Run("cold", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.puts != 1 {
		t.Fatalf("store puts = %d, want 1", st.puts)
	}

	// A new executor (cold dedup map) must hit the store, not re-run.
	x2 := NewExecutor(context.Background(), Options{Workers: 2, Store: st})
	res2, err := x2.Run("warm", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.puts != 1 {
		t.Fatalf("warm executor re-ran the job: puts = %d", st.puts)
	}
	if st.hits == 0 {
		t.Fatal("warm executor never consulted the store")
	}
	if string(marshal(t, res1)) != string(marshal(t, res2)) {
		t.Fatal("store-served results differ from executed ones")
	}
}

// TestExecutorRunCtxCancelled: a cancelled per-call context fails the
// submission without poisoning the key — the next submission runs.
func TestExecutorRunCtxCancelled(t *testing.T) {
	x := NewExecutor(context.Background(), Options{Workers: 1})
	cfg := tinyCfg(scenario.ECGRID, 9)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := x.RunCtx(ctx, "cancelled", cfg); err == nil {
		t.Fatal("RunCtx with cancelled context succeeded")
	}

	// Same key, live context: must execute normally, not replay the
	// cancellation.
	res, err := x.RunCtx(context.Background(), "retry", cfg)
	if err != nil {
		t.Fatalf("submission after a cancelled one failed: %v", err)
	}
	if res == nil || res.Sent == 0 {
		t.Fatal("retry produced no results")
	}
}

// TestExecutorRunCtxDeadlineWhileQueued: a per-call context that expires
// while the submission waits behind the worker pool fails that
// submission only.
func TestExecutorRunCtxDeadlineWhileQueued(t *testing.T) {
	x := NewExecutor(context.Background(), Options{Workers: 1})

	// Occupy the single worker slot so the next submission queues.
	release := make(chan struct{})
	x.sem <- struct{}{}
	go func() {
		<-release
		<-x.sem
	}()
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := x.RunCtx(ctx, "queued", tinyCfg(scenario.ECGRID, 11))
		errc <- err
	}()
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("queued submission survived its context being cancelled")
	}
}
