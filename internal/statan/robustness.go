package statan

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// robustnessPass keeps library code interruptible and crash-tolerant:
//
//   - os.Exit skips deferred cleanup (journal flush, pool drain);
//     return an error to the caller, or mark a genuine process
//     boundary "//lint:exit <reason>" (the CLI mains, nothing deeper);
//   - bare signal.Notify hides signals from the study's context; use
//     signal.NotifyContext so cancellation reaches the scheduler
//     ("//lint:signal <reason>" suppresses);
//   - an http.Server literal without ReadHeaderTimeout lets one slow
//     client pin a connection forever (slowloris), and the package
//     http.ListenAndServe helpers give back no handle to Shutdown at
//     all ("//lint:http <reason>" suppresses);
//   - a package that serves an http.Server but never calls Shutdown
//     cannot drain in-flight leases on SIGTERM ("//lint:shutdown
//     <reason>" suppresses);
//   - in dispatch code (any package under a "dispatch" path segment),
//     a time.Sleep inside a loop is a blind polling spin: it ignores
//     context cancellation and fixed-rate-hammers the coordinator.
//     Use a context-aware timer in a select ("//lint:sleep <reason>"
//     suppresses).
func robustnessPass() *Pass {
	return &Pass{
		Name: "robustness",
		Run: func(pkg *Package, r *Reporter) {
			dispatchDir := dirHasSegment(pkg.Dir, "dispatch")
			var serveCalls []token.Pos // srv.Serve / srv.ListenAndServe method calls
			shutdownWired := false     // some .Shutdown selector appears in the package
			for _, file := range pkg.Files {
				f := file
				loopDepth := 0
				var stack []ast.Node
				ast.Inspect(file, func(n ast.Node) bool {
					if n == nil {
						top := stack[len(stack)-1]
						stack = stack[:len(stack)-1]
						switch top.(type) {
						case *ast.ForStmt, *ast.RangeStmt:
							loopDepth--
						}
						return true
					}
					stack = append(stack, n)
					switch n := n.(type) {
					case *ast.ForStmt, *ast.RangeStmt:
						loopDepth++
					case *ast.CompositeLit:
						if isHTTPServerLit(n, f, pkg.Info) && !hasField(n, "ReadHeaderTimeout") {
							r.ReportSuppressible(n.Pos(), "http-server", "http",
								"http.Server without ReadHeaderTimeout lets one slow client hold a connection open forever; set ReadHeaderTimeout (or mark a non-network server //lint:http <reason>)")
						}
					case *ast.SelectorExpr:
						if n.Sel.Name == "Shutdown" {
							shutdownWired = true
						}
					case *ast.CallExpr:
						se, isSel := n.Fun.(*ast.SelectorExpr)
						path, sel, isPkg := pkgSelector(n, f, pkg.Info)
						switch {
						case isPkg && path == "os" && sel == "Exit":
							r.ReportSuppressible(n.Pos(), "os-exit", "exit",
								"os.Exit skips deferred cleanup (journal flush, pool drain); return an error to the caller (or mark a genuine process boundary //lint:exit <reason>)")
						case isPkg && path == "os/signal" && sel == "Notify":
							r.ReportSuppressible(n.Pos(), "signal-notify", "signal",
								"bare signal.Notify hides the signal from the study's context; use signal.NotifyContext so cancellation reaches the scheduler")
						case isPkg && path == "net/http" && (sel == "ListenAndServe" || sel == "ListenAndServeTLS"):
							r.ReportSuppressible(n.Pos(), "http-server", "http",
								fmt.Sprintf("http.%s gives no handle for Shutdown and no ReadHeaderTimeout; construct an http.Server and wire graceful shutdown", sel))
						case isPkg && path == "time" && sel == "Sleep" && dispatchDir && loopDepth > 0:
							r.ReportSuppressible(n.Pos(), "sleep-poll", "sleep",
								"time.Sleep in a dispatch loop ignores cancellation and polls at a fixed rate; use a context-aware timer in a select (or mark //lint:sleep <reason>)")
						case !isPkg && isSel:
							// A method call: srv.Serve and friends need Shutdown
							// wired somewhere in the same package.
							switch se.Sel.Name {
							case "Serve", "ListenAndServe", "ListenAndServeTLS":
								serveCalls = append(serveCalls, n.Pos())
							}
						}
					}
					return true
				})
			}
			if !shutdownWired {
				for _, pos := range serveCalls {
					r.ReportSuppressible(pos, "http-shutdown", "shutdown",
						"this package serves an http.Server but never calls Shutdown; wire graceful shutdown so in-flight work drains on SIGTERM (or mark //lint:shutdown <reason>)")
				}
			}
		},
	}
}

// isHTTPServerLit reports whether the composite literal constructs a
// net/http Server (http.Server{...}; the enclosing & of &http.Server{}
// does not change the literal node).
func isHTTPServerLit(lit *ast.CompositeLit, file *ast.File, info *types.Info) bool {
	se, ok := lit.Type.(*ast.SelectorExpr)
	if !ok || se.Sel.Name != "Server" {
		return false
	}
	ident, ok := se.X.(*ast.Ident)
	if !ok {
		return false
	}
	path, ok := importPath(ident, file, info)
	return ok && path == "net/http"
}

// hasField reports whether the keyed composite literal sets the named
// field.
func hasField(lit *ast.CompositeLit, name string) bool {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if ident, ok := kv.Key.(*ast.Ident); ok && ident.Name == name {
			return true
		}
	}
	return false
}

// dirHasSegment reports whether the cleaned slash path contains the
// named path segment ("internal/dispatch" has "dispatch").
func dirHasSegment(dir, seg string) bool {
	for _, s := range strings.Split(filepath.ToSlash(filepath.Clean(dir)), "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// pkgSelector decomposes a call of the form pkgname.Func(...) into the
// import path of pkgname and the selected name.
func pkgSelector(call *ast.CallExpr, file *ast.File, info *types.Info) (path, sel string, ok bool) {
	se, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	ident, ok := se.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	path, ok = importPath(ident, file, info)
	if !ok {
		return "", "", false
	}
	return path, se.Sel.Name, true
}

// isMapType unwraps named types and reports whether t is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// unknownType reports whether the best-effort checker failed to type
// the expression (nil or invalid), which happens for values flowing
// out of stub-imported packages.
func unknownType(t types.Type) bool {
	if t == nil {
		return true
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Invalid
}
