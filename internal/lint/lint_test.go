package lint

import (
	"go/ast"
	"path/filepath"
	"strings"
	"testing"
)

// rangeStmts returns every range statement of the package in source
// order.
func rangeStmts(pkg *Package) []*ast.RangeStmt {
	var out []*ast.RangeStmt
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok {
				out = append(out, rs)
			}
			return true
		})
	}
	return out
}

func TestSuppressedPlacements(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "ecgrid", "internal", "lintfix"), "ecgrid/internal/lintfix")
	if err != nil {
		t.Fatal(err)
	}
	pass := &Pass{Analyzer: &Analyzer{Name: "test"}, Pkg: pkg}
	ranges := rangeStmts(pkg)
	if len(ranges) != 4 {
		t.Fatalf("fixture has %d range statements, want 4", len(ranges))
	}
	want := []bool{true, true, false, false} // trailing, line-above, spaced look-alike, bare
	for i, rs := range ranges {
		if got := pass.Suppressed(rs, "ordered"); got != want[i] {
			pos := pkg.Fset.Position(rs.Pos())
			t.Errorf("range #%d at %s: Suppressed = %v, want %v", i, pos, got, want[i])
		}
		if pass.Suppressed(rs, "exact") {
			t.Errorf("range #%d suppressed under the wrong directive name", i)
		}
	}
}

func TestInScope(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"ecgrid/internal/sim", true},
		{"ecgrid/internal/core", true},
		{"ecgrid/internal/protocols/gaf", true},
		{"ecgrid/internal/protocols", true},
		{"ecgrid/internal/faults", true},
		{"ecgrid/internal/ras", true},
		{"ecgrid/internal/rasterize", false}, // prefix of a tree name, not inside it
		{"ecgrid/internal/simulator", false}, // prefix of a tree name, not inside it
		{"ecgrid/internal/batch", false},
		{"ecgrid/cmd/sweep", false},
	}
	for _, c := range cases {
		if got := InScope(c.path, SimPackages); got != c.want {
			t.Errorf("InScope(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestLoadReportsAllTypeErrors(t *testing.T) {
	_, err := LoadDir(filepath.Join("testdata", "src", "ecgrid", "internal", "brokenfix"), "ecgrid/internal/brokenfix")
	if err == nil {
		t.Fatal("loading the deliberately broken fixture succeeded")
	}
	msg := err.Error()
	for _, want := range []string{"cannot use", "definitelyNotDefined"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error omits %q; the loader stopped at the first type error:\n%s", want, msg)
		}
	}
}

func TestLoadSkipsTestdataAndLoadsRepo(t *testing.T) {
	pkgs, err := Load(LoadConfig{Dir: "."}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	byPath := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = true
	}
	if !byPath["ecgrid/internal/lint"] {
		t.Errorf("Load ./... from internal/lint missed the package itself; got %d packages", len(pkgs))
	}
	for p := range byPath {
		if filepath.Base(p) == "lintfix" {
			t.Errorf("Load ./... descended into testdata: %s", p)
		}
	}
}
