package batch

import (
	"context"
	"strings"
	"sync"
	"testing"

	"ecgrid/internal/runner"
	"ecgrid/internal/scenario"
)

// TestExecutorDedup: concurrent submissions of the same config share one
// execution and return the same results value.
func TestExecutorDedup(t *testing.T) {
	var lines []string
	x := NewExecutor(context.Background(), Options{
		Workers:  4,
		Progress: NewSink(func(s string) { lines = append(lines, s) }),
	})
	cfg := tinyCfg(scenario.ECGRID, 7)
	const callers = 8
	got := make([]*runner.Results, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := x.Run("dedup", cfg)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = r
		}(i)
	}
	wg.Wait()
	if len(lines) != 1 {
		t.Fatalf("%d executions for %d identical submissions, want 1", len(lines), callers)
	}
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different results value", i)
		}
	}
	// A later repeat submission hits the cache too.
	r, err := x.Run("dedup", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r != got[0] || len(lines) != 1 {
		t.Fatal("repeat submission re-ran the simulation")
	}
}

func TestExecutorPanicIsolation(t *testing.T) {
	x := NewExecutor(context.Background(), Options{Workers: 2})
	bad := tinyCfg(scenario.ECGRID, 1)
	bad.Hosts = -1
	if _, err := x.Run("bad", bad); err == nil {
		t.Fatal("invalid config did not error")
	}
	// The executor stays usable after a panic.
	if _, err := x.Run("good", tinyCfg(scenario.ECGRID, 2)); err != nil {
		t.Fatal(err)
	}
	// The failure is cached like any other outcome.
	_, err := x.Run("bad again", bad)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("cached failure = %v", err)
	}
}

func TestExecutorCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := NewExecutor(ctx, Options{Workers: 1})
	if _, err := x.Run("cancelled", tinyCfg(scenario.ECGRID, 9)); err == nil {
		t.Fatal("cancelled executor accepted work")
	}
}
