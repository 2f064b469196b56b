package batch

import (
	"context"
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
}

func newMemStore() *memStore { return &memStore{m: make(map[string]*runner.Results)} }

func (s *memStore) Get(key string) (*runner.Results, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
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

// TestRunStoreShardedHitsSerialEntry: the shard count is execution
// strategy, not model, so a sharded rerun of a serially stored config
// is a store hit — one simulation in total, however the model is run.
func TestRunStoreShardedHitsSerialEntry(t *testing.T) {
	st := newMemStore()
	serial := tinyCfg(scenario.ECGRID, 4)
	first, sum := Run(context.Background(), []Job{{Tag: "serial", Cfg: serial}}, Options{Workers: 1, Store: st})
	if err := sum.Err(); err != nil {
		t.Fatal(err)
	}

	sharded := serial
	sharded.Shards = 2
	second, sum2 := Run(context.Background(), []Job{{Tag: "sharded", Cfg: sharded}}, Options{Workers: 1, Store: st})
	if err := sum2.Err(); err != nil {
		t.Fatal(err)
	}
	if got := sum.Executed + sum2.Executed; got != 1 || sum2.Cached != 1 || st.puts != 1 {
		t.Fatalf("executed %d simulations (cached %d, puts %d), want 1 (1, 1)", got, sum2.Cached, st.puts)
	}
	if second[0].Key != first[0].Key {
		t.Fatalf("sharded key %s, want the serial key %s", second[0].Key, first[0].Key)
	}
	if string(marshal(t, first[0].Res)) != string(marshal(t, second[0].Res)) {
		t.Fatal("sharded rerun served different results")
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
