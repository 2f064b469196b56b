// Package lint is a small, dependency-free static-analysis framework
// modeled on the golang.org/x/tools/go/analysis vocabulary (Analyzer,
// Pass, Diagnostic), built entirely on the standard library's go/ast and
// go/types so the simulator's determinism rules can be machine-enforced
// without adding a module dependency.
//
// The suite exists because every figure in the ECGRID reproduction rests
// on the claim that the discrete-event engine is bit-deterministic per
// seed. Go randomizes map iteration order per range statement, seeds the
// global math/rand source differently per process, and wall-clock calls
// leak host time into simulated time — all three silently break run-for-run
// reproducibility. The analyzers under internal/lint/... turn those
// conventions into CI failures.
//
// Intentional exceptions are annotated in source with a directive
// comment on the offending line (or the line directly above it):
//
//	//simlint:ordered <one-line justification>   (maprange)
//	//simlint:exact <one-line justification>     (floateq)
//	//simlint:walltime <one-line justification>  (walltime)
//	//simlint:leased <one-line justification>    (framelease)
//	//simlint:stale <one-line justification>     (handlestale)
//	//simlint:stream <one-line justification>    (rngstream)
//	//simlint:err <one-line justification>       (ctxerr)
//	//simlint:ctx <one-line justification>       (ctxerr)
//
// Like //go: directives, the comment must start exactly with
// "//simlint:" — no space after the slashes.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package, reporting findings
	// through the pass.
	Run func(*Pass) error
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// A Package is one loaded, parsed, and type-checked package.
type Package struct {
	// Path is the package's import path (for testdata fixtures, the
	// label it was loaded under).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// directives maps file name -> line -> directive names present on
	// that line. Built lazily by directivesFor.
	directives map[string]map[int]map[string]bool
}

// A Pass connects one Analyzer to one Package and collects its
// diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Suppressed reports whether node n carries the named //simlint:
// directive, either trailing on n's first line or on the line directly
// above it.
func (p *Pass) Suppressed(n ast.Node, name string) bool {
	pos := p.Pkg.Fset.Position(n.Pos())
	lines := p.Pkg.directivesFor(pos.Filename)
	return lines[pos.Line][name] || lines[pos.Line-1][name]
}

// Directives enumerates every suppression directive and the analyzer it
// silences. The simlint findings baseline counts annotated exceptions
// per file with this table, so adding a directive here is part of
// adding an analyzer.
var Directives = map[string]string{
	"ordered":  "maprange",
	"walltime": "walltime",
	"exact":    "floateq",
	"leased":   "framelease",
	"stale":    "handlestale",
	"stream":   "rngstream",
	"err":      "ctxerr",
	"ctx":      "ctxerr",
}

// DirectivesInFile scans one parsed file for //simlint: annotation
// comments and returns the count per directive name (only names listed
// in Directives are counted — an unknown name is likely a typo and is
// ignored rather than silently tracked).
func DirectivesInFile(f *ast.File) map[string]int {
	counts := make(map[string]int)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			name, _, _ := strings.Cut(rest, " ")
			name = strings.TrimSpace(name)
			if _, known := Directives[name]; known {
				counts[name]++
			}
		}
	}
	return counts
}

// directivePrefix introduces an annotation comment. The directive name
// runs to the first whitespace; the remainder is a free-form
// justification.
const directivePrefix = "//simlint:"

func (pkg *Package) directivesFor(filename string) map[int]map[string]bool {
	if pkg.directives == nil {
		pkg.directives = make(map[string]map[int]map[string]bool)
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, directivePrefix)
					if !ok {
						continue
					}
					name, _, _ := strings.Cut(rest, " ")
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					cpos := pkg.Fset.Position(c.Pos())
					byLine := pkg.directives[cpos.Filename]
					if byLine == nil {
						byLine = make(map[int]map[string]bool)
						pkg.directives[cpos.Filename] = byLine
					}
					names := byLine[cpos.Line]
					if names == nil {
						names = make(map[string]bool)
						byLine[cpos.Line] = names
					}
					names[name] = true
				}
			}
		}
	}
	return pkg.directives[filename]
}

// Run applies every analyzer to every package and returns the combined
// diagnostics sorted by position (then analyzer name), so output and CI
// failures are stable.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Pkg:      pkg,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// SimPackages lists the package trees whose code runs inside the
// discrete-event simulation. Determinism analyzers (maprange, walltime)
// apply only here: tooling packages (batch, experiment, cmd/...) may
// legitimately consult the wall clock or iterate maps whose order never
// reaches simulation state.
var SimPackages = []string{
	"ecgrid/internal/sim",
	"ecgrid/internal/core",
	"ecgrid/internal/routing",
	"ecgrid/internal/grid",
	"ecgrid/internal/node",
	"ecgrid/internal/protocols",
	"ecgrid/internal/faults",
	"ecgrid/internal/spatial",
	"ecgrid/internal/scengen",
	// radio and ras joined the scope with the receiver-plane cache
	// (DESIGN.md §16): both now keep order-sensitive caches (receiver
	// lists, the paging bus's sorted-ID list) rebuilt from maps, where
	// iteration order leaking into simulation state would be exactly
	// the nondeterminism these analyzers exist to catch.
	"ecgrid/internal/radio",
	"ecgrid/internal/ras",
}

// FloatPackages lists the package trees where floating-point ==/!= is
// flagged (floateq): geometry and the energy/metrics accounting, where
// accumulated rounding makes exact comparison a correctness hazard.
var FloatPackages = []string{
	"ecgrid/internal/geom",
	"ecgrid/internal/energy",
	"ecgrid/internal/metrics",
}

// ServicePackages lists the package trees that face real concurrent
// traffic (the HTTP daemon and the batch runner). The ctxerr analyzer
// applies only here: dropped errors and context-free goroutines are
// service-tier hazards, while the simulation loop is single-threaded
// and panics on internal errors by design.
var ServicePackages = []string{
	"ecgrid/internal/server",
	"ecgrid/internal/batch",
}

// InScope reports whether the import path lies in one of the listed
// package trees (the tree root or any package below it).
func InScope(path string, trees []string) bool {
	for _, t := range trees {
		if path == t || strings.HasPrefix(path, t+"/") {
			return true
		}
	}
	return false
}
