package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ecgrid/internal/lint"
)

// TestRegistersFullSuite pins the driver's registry: every analyzer of
// the suite must be wired in, exactly once.
func TestRegistersFullSuite(t *testing.T) {
	want := map[string]bool{
		"maprange":    false,
		"walltime":    false,
		"globalrand":  false,
		"floateq":     false,
		"framelease":  false,
		"handlestale": false,
		"rngstream":   false,
		"ctxerr":      false,
	}
	as := analyzers()
	if len(as) != len(want) {
		t.Fatalf("driver registers %d analyzers, want %d", len(as), len(want))
	}
	for _, a := range as {
		seen, known := want[a.Name]
		if !known {
			t.Errorf("unknown analyzer %q registered", a.Name)
		}
		if seen {
			t.Errorf("analyzer %q registered twice", a.Name)
		}
		want[a.Name] = true
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("analyzer %q not registered", name)
		}
	}
}

func TestRunFlagsViolation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"testdata/badpkg"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "global rand.Intn") || !strings.Contains(stdout.String(), "globalrand") {
		t.Errorf("diagnostic output missing globalrand finding:\n%s", stdout.String())
	}
}

func TestRunBadPattern(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./no/such/dir"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestBaselineRoundTrip writes a baseline over the deliberately broken
// fixture, re-checks against it (accounted findings pass), and then
// verifies an empty baseline flags the same findings as drift.
func TestBaselineRoundTrip(t *testing.T) {
	base := filepath.Join(t.TempDir(), "baseline")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-write-baseline", base, "testdata/badpkg"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-write-baseline exit = %d\nstderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "finding globalrand testdata/badpkg/") {
		t.Fatalf("baseline missing the badpkg finding:\n%s", data)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-baseline", base, "testdata/badpkg"}, &stdout, &stderr); code != 0 {
		t.Fatalf("accounted finding failed the baseline check: exit %d\nstdout: %s\nstderr: %s",
			code, stdout.String(), stderr.String())
	}

	empty := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(empty, []byte("# nothing\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-baseline", empty, "testdata/badpkg"}, &stdout, &stderr); code != 1 {
		t.Fatalf("new finding passed an empty baseline: exit %d\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "new since baseline: finding globalrand") {
		t.Errorf("drift output missing the new-finding line:\n%s", stdout.String())
	}
}

// TestBaselineStaleEntryFails pins the two-way contract: an entry the
// tree no longer justifies is drift too, so fixes force a regenerate.
func TestBaselineStaleEntryFails(t *testing.T) {
	base := filepath.Join(t.TempDir(), "baseline")
	stale := "finding globalrand testdata/badpkg/bad.go 99\nsuppress ordered gone/gone.go 2\n"
	if err := os.WriteFile(base, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-baseline", base, "testdata/badpkg"}, &stdout, &stderr); code != 1 {
		t.Fatalf("stale baseline passed: exit %d\nstdout: %s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "stale baseline entry: suppress ordered gone/gone.go") {
		t.Errorf("drift output missing the stale-entry line:\n%s", stdout.String())
	}
}

func TestMalformedBaseline(t *testing.T) {
	base := filepath.Join(t.TempDir(), "baseline")
	if err := os.WriteFile(base, []byte("finding onlythree fields\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-baseline", base, "testdata/badpkg"}, &stdout, &stderr); code != 2 {
		t.Fatalf("malformed baseline: exit %d, want 2\nstderr: %s", code, stderr.String())
	}
}

// TestRepoMatchesCommittedBaseline is the CI contract in miniature: the
// committed .simlint-baseline must exactly account for the shipped
// tree's findings and suppression annotations.
func TestRepoMatchesCommittedBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repo from source")
	}
	pkgs, diags := analyzeRepo(t)
	var stdout, stderr bytes.Buffer
	if code := report(pkgs, diags, repoDir, ".simlint-baseline", "", &stdout, &stderr); code != 0 {
		t.Fatalf("baseline drift: exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

// TestRepoIsClean is the shipped-tree guarantee: the full suite over the
// whole repo reports nothing.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repo from source")
	}
	pkgs, diags := analyzeRepo(t)
	var stdout, stderr bytes.Buffer
	if code := report(pkgs, diags, repoDir, "", "", &stdout, &stderr); code != 0 {
		t.Fatalf("simlint over the repo: exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

// repoDir is the module root, relative to this package.
const repoDir = "../.."

// repo is the whole repo loaded and analysed by the full suite, as
// `simlint -C ../.. ./...` does, once per test binary: type-checking
// every package from source is most of this package's test time, and
// the repo tests only read the result.
var repo struct {
	once  sync.Once
	pkgs  []*lint.Package
	diags []lint.Diagnostic
	err   error
}

func analyzeRepo(t *testing.T) ([]*lint.Package, []lint.Diagnostic) {
	t.Helper()
	repo.once.Do(func() {
		repo.pkgs, repo.err = lint.Load(lint.LoadConfig{Dir: repoDir}, "./...")
		if repo.err == nil {
			repo.diags, repo.err = lint.Run(repo.pkgs, analyzers())
		}
	})
	if repo.err != nil {
		t.Fatalf("simlint: %v", repo.err)
	}
	return repo.pkgs, repo.diags
}
