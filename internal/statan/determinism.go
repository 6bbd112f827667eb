package statan

import (
	"fmt"
	"go/ast"
)

// determinismPass bans the three classic sources of run-to-run
// nondeterminism from result-producing code. Study results must be
// byte-identical run to run and across parallelism settings (the
// scheduler's core guarantee), so:
//
//   - ranging over a map (iteration order is randomized by the
//     runtime) — sort the keys first, or mark a genuinely
//     order-insensitive loop "//lint:ordered <reason>";
//   - time.Now / time.Since / time.Until (wall-clock values leak into
//     output) — thread timing through explicit parameters, or mark a
//     display-only read "//lint:clock <reason>";
//   - the global math/rand source (shared, unseeded state) — construct
//     a local rand.New(rand.NewSource(seed)); "//lint:rand <reason>"
//     suppresses.
func determinismPass() *Pass {
	return &Pass{
		Name: "determinism",
		Run: func(pkg *Package, r *Reporter) {
			for _, file := range pkg.Files {
				f := file
				ast.Inspect(file, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.RangeStmt:
						t := pkg.Info.TypeOf(n.X)
						switch {
						case isMapType(t):
							r.ReportSuppressible(n.Pos(), "map-range", "ordered",
								"map iteration order is nondeterministic; sort the keys (or mark the loop //lint:ordered <reason> if order cannot reach results or output)")
						case unknownType(t):
							// The stub importer cannot type cross-package
							// expressions; an author-suppressed loop over
							// one must not read as stale.
							r.Consult(n.Pos(), "ordered")
						}
					case *ast.CallExpr:
						path, sel, ok := pkgSelector(n, f, pkg.Info)
						if !ok {
							return true
						}
						switch {
						case path == "time" && (sel == "Now" || sel == "Since" || sel == "Until"):
							r.ReportSuppressible(n.Pos(), "wall-clock", "clock",
								fmt.Sprintf("time.%s makes results depend on the wall clock; thread timing through explicit parameters (or mark a display-only read //lint:clock <reason>)", sel))
						case path == "math/rand" && sel != "New" && sel != "NewSource":
							r.ReportSuppressible(n.Pos(), "global-rand", "rand",
								fmt.Sprintf("rand.%s uses the shared global source; use rand.New(rand.NewSource(seed)) for reproducible sampling", sel))
						}
					}
					return true
				})
			}
		},
	}
}
