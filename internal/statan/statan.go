// Package statan is sevsim's typed static-analysis gate. It loads Go
// packages with go/parser + go/types (stdlib only — a stub importer
// satisfies cross-package imports, so it runs in offline environments
// without compiled export data or golang.org/x/tools), runs every pass
// over them, and collects position-accurate diagnostics with per-rule
// suppression comments and fixture-driven self-tests. The gate is the
// test TestRepoIsClean: every package under internal/ and cmd/ must
// come back without a finding.
//
// Line suppressions ("//lint:<key> <reason>") exempt one statement from
// one rule; every suppression must carry a reason, and a suppression
// that no finding consulted is itself reported stale.
//
// The passes themselves live in sibling files; Passes lists them all.
package statan

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"sort"
	"strings"
)

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos  token.Position
	Pass string
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s/%s] %s", d.Pos, d.Pass, d.Rule, d.Msg)
}

// Package is one loaded package: parsed files in deterministic order
// plus best-effort type information. The stub importer satisfies every
// import with an empty package, so cross-package expressions degrade to
// invalid types while locally declared maps, channels, import names,
// and method receivers still resolve — which is all the passes need.
type Package struct {
	Dir   string
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info

	sup *suppressions
}

// Pass is one analysis. Run inspects a loaded package and reports
// findings through the Reporter.
type Pass struct {
	Name string
	Run  func(pkg *Package, r *Reporter)
}

// Passes lists every pass the framework knows, in the order they run.
func Passes() []*Pass {
	return []*Pass{
		determinismPass(),
		robustnessPass(),
	}
}

// LoadDir parses and type-checks every non-test Go file in dir.
// Multiple packages in one directory (rare outside fixtures) load as
// separate Packages, sorted by package name.
func LoadDir(dir string) ([]*Package, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}

	var names []string
	for name := range pkgs { //lint:ordered sorted on the next line
		names = append(names, name)
	}
	sort.Strings(names)

	var out []*Package
	for _, name := range names {
		pkg := pkgs[name]
		var fileNames []string
		for fn := range pkg.Files { //lint:ordered sorted on the next line
			fileNames = append(fileNames, fn)
		}
		sort.Strings(fileNames)
		var files []*ast.File
		for _, fn := range fileNames {
			files = append(files, pkg.Files[fn])
		}

		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
			Defs:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{
			Importer: &stubImporter{pkgs: map[string]*types.Package{}},
			Error:    func(error) {}, // incomplete imports are expected
		}
		conf.Check(dir, fset, files, info) // error intentionally ignored

		p := &Package{Dir: dir, Name: name, Fset: fset, Files: files, Info: info}
		p.sup = scanSuppressions(fset, files)
		out = append(out, p)
	}
	return out, nil
}

// Run executes every pass over the package, then the suppression
// hygiene check (unknown //lint: keys, and suppressions no finding
// consulted), and returns the diagnostics sorted by position.
func Run(pkg *Package) []Diagnostic {
	var ds []Diagnostic
	for _, p := range Passes() {
		r := &Reporter{pkg: pkg, pass: p.Name, out: &ds}
		p.Run(pkg, r)
	}
	reportSuppressionHygiene(pkg, &ds)
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i].Pos, ds[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Offset != b.Offset {
			return a.Offset < b.Offset
		}
		return ds[i].Rule < ds[j].Rule
	})
	return ds
}

// Reporter delivers diagnostics for one pass over one package.
type Reporter struct {
	pkg  *Package
	pass string
	out  *[]Diagnostic
}

// Report emits an unconditional diagnostic.
func (r *Reporter) Report(pos token.Pos, rule, msg string) {
	r.reportAt(r.pkg.Fset.Position(pos), rule, msg)
}

func (r *Reporter) reportAt(p token.Position, rule, msg string) {
	*r.out = append(*r.out, Diagnostic{Pos: p, Pass: r.pass, Rule: rule, Msg: msg})
}

// ReportSuppressible emits the diagnostic unless the line carries a
// matching "//lint:<key>" suppression. A consulted suppression is
// marked used (so the hygiene check can flag stale ones); a consulted
// suppression without a reason string is reported once in its own
// right, because an unexplained exemption is exactly the drift these
// rules exist to prevent.
func (r *Reporter) ReportSuppressible(pos token.Pos, rule, key, msg string) {
	if r.Consult(pos, key) {
		return
	}
	r.Report(pos, rule, msg)
}

// Consult marks a matching suppression on the line used without
// reporting anything (beyond the missing-reason check). Rules call it
// when they cannot decide a line — e.g. a range over a cross-package
// expression the stub importer cannot type — so an author-suppressed
// line never reads as stale just because the checker lacked evidence.
func (r *Reporter) Consult(pos token.Pos, key string) bool {
	p := r.pkg.Fset.Position(pos)
	e := r.pkg.sup.lookup(p.Filename, p.Line, key)
	if e == nil {
		return false
	}
	e.used = true
	if e.Reason == "" && !e.reasonReported {
		e.reasonReported = true
		r.reportAt(e.Pos, "suppression-reason",
			fmt.Sprintf("suppression //lint:%s needs a reason (//lint:%s <why this line is exempt>)", key, key))
	}
	return true
}

// stubImporter satisfies any import with an empty, complete package so
// go/types can resolve package names without compiled export data.
type stubImporter struct{ pkgs map[string]*types.Package }

func (im *stubImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.pkgs[path]; ok {
		return p, nil
	}
	name := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		name = path[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	im.pkgs[path] = p
	return p, nil
}

// importPath resolves a selector base identifier to the import path of
// the package it names. Resolution prefers type information (which
// handles renamed imports); when the checker could not bind the
// identifier it falls back to matching the file's import declarations
// syntactically.
func importPath(ident *ast.Ident, file *ast.File, info *types.Info) (string, bool) {
	if obj, ok := info.Uses[ident]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path(), true
		}
		return "", false // a variable or type, not a package name
	}
	// Syntactic fallback: an import whose (declared or default) name
	// matches the identifier.
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == ident.Name {
			return path, true
		}
	}
	return "", false
}
