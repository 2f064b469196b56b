package claims

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"ecgrid/internal/batch"
	"ecgrid/internal/runner"
	"ecgrid/internal/scenario"
)

func TestClaimsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range All() {
		if c.ID == "" || c.Statement == "" || c.Needs == nil || c.Judge == nil {
			t.Fatalf("malformed claim %+v", c)
		}
		for _, fast := range []bool{true, false} {
			if len(c.Needs(NewEnv(1, fast))) == 0 {
				t.Fatalf("claim %s needs no runs (fast=%v)", c.ID, fast)
			}
		}
		if seen[c.ID] {
			t.Fatalf("duplicate claim id %q", c.ID)
		}
		seen[c.ID] = true
	}
	if len(seen) < 10 {
		t.Fatalf("only %d claims", len(seen))
	}
}

// needs returns a Needs that ignores the Env.
func needs(cfgs ...scenario.Config) func(*Env) []scenario.Config {
	return func(*Env) []scenario.Config { return cfgs }
}

// hosts judges a claim by echoing its results' host counts, so a test
// can see which results reached it and in what order.
func hosts(_ *Env, rs []*runner.Results) Verdict {
	n := make([]int, len(rs))
	for i, r := range rs {
		n[i] = r.Cfg.Hosts
	}
	return Verdict{Pass: true, Detail: fmt.Sprint(n)}
}

func TestCheckRunsSharedConfigOnce(t *testing.T) {
	e := NewEnv(1, true)
	a, b := e.base(scenario.ECGRID, 1, 20, 30), e.base(scenario.ECGRID, 1, 21, 30)
	var lines []string
	opt := batch.Options{Progress: batch.NewSink(func(s string) { lines = append(lines, s) })}
	v := Check(context.Background(), e, []Claim{
		{ID: "ab", Needs: needs(a, b), Judge: hosts},
		{ID: "ba", Needs: needs(b, a), Judge: hosts},
		{ID: "a", Needs: needs(a), Judge: hosts},
	}, opt)
	if len(lines) != 2 {
		t.Fatalf("two distinct configs made %d progress lines: %q", len(lines), lines)
	}
	for i, want := range []string{"[20 21]", "[21 20]", "[20]"} {
		if !v[i].Pass || v[i].Detail != want {
			t.Errorf("claim %d got results %q, want them in Needs order %q", i, v[i].Detail, want)
		}
	}
}

func TestCheckFailedRun(t *testing.T) {
	e := NewEnv(1, true)
	good := e.base(scenario.ECGRID, 1, 20, 30)
	bad := good
	bad.Hosts = -1
	v := Check(context.Background(), e, []Claim{
		{ID: "ok", Needs: needs(good), Judge: hosts},
		{ID: "bad", Needs: needs(good, bad), Judge: func(*Env, []*runner.Results) Verdict {
			t.Error("judged a claim whose run failed")
			return Verdict{Pass: true}
		}},
		{ID: "ok2", Needs: needs(good), Judge: hosts},
	}, batch.Options{})
	if len(v) != 3 || !v[0].Pass || !v[2].Pass {
		t.Fatalf("healthy claims failed: %+v", v)
	}
	if v[1].Pass || !strings.Contains(v[1].Detail, "panic: ") {
		t.Fatalf("claim with a failed run: %+v, want a failure carrying the run's panic", v[1])
	}
}

func TestAllClaimsPassFast(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many simulations")
	}
	verdicts := Check(context.Background(), NewEnv(1, true), All(), batch.Options{})
	for i, c := range All() {
		if v := verdicts[i]; !v.Pass {
			t.Errorf("claim %s failed: %s\nmeasured: %s", c.ID, c.Statement, v.Detail)
		}
	}
}
