// Command sevlint is sevsim's static-analysis gate, built on the
// internal/statan framework. It enforces the code rules the
// reproduction's byte-identical study.json and its interruptible,
// self-healing service rest on, as machine-checked facts rather than
// DESIGN.md arguments:
//
//	determinism      no map ranges, wall-clock reads, or global
//	                 math/rand in result-producing code
//	robustness       no os.Exit outside marked process boundaries,
//	                 no bare signal.Notify, no http.Server without
//	                 ReadHeaderTimeout or served without Shutdown
//	                 wiring, no time.Sleep polling loops in dispatch
//	                 code (use a context-aware timer in a select)
//
// Both apply to internal/ and cmd/ (examples and fixtures are demo
// code). Line suppressions ("//lint:<key> <reason>") require a reason,
// and stale suppressions are themselves findings. Test files are
// exempt. The checkpoint and convergence relations are held by field
// tables that perturb every field (internal/fieldtable), not by a pass.
//
// Usage:
//
//	go run ./cmd/sevlint ./...              # whole-repo gate (CI)
//	go run ./cmd/sevlint ./internal/cpu     # one directory
//	go run ./cmd/sevlint -json ./...        # machine-readable output
//	go run ./cmd/sevlint -passes determinism ./internal/...
//	go run ./cmd/sevlint -list              # describe the passes
//
// Exits 1 when any finding is reported, 2 on a load error.
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sevsim/internal/statan"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	passList := flag.String("passes", "", "comma-separated pass subset (default: all)")
	list := flag.Bool("list", false, "list the registered passes and exit")
	flag.Parse()

	if *list {
		for _, p := range statan.Passes() {
			fmt.Printf("%-17s %s\n", p.Name, p.Doc)
		}
		return
	}

	selected, all := selectPasses(*passList)

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := expand(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sevlint:", err)
		os.Exit(2) //lint:exit process boundary: load failure in the lint CLI
	}

	var diags []statan.Diagnostic
	for _, dir := range dirs {
		pkgs, err := statan.LoadDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sevlint:", err)
			os.Exit(2) //lint:exit process boundary: load failure in the lint CLI
		}
		if !gated(dir) {
			continue
		}
		for _, pkg := range pkgs {
			diags = append(diags, statan.Run(pkg, statan.RunOptions{
				Passes: selected,
				// Stale-suppression detection is only sound when every
				// rule a suppression could serve actually ran.
				CheckSuppressions: all,
			})...)
		}
	}

	if *jsonOut {
		b, err := statan.MarshalDiagnostics(diags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sevlint:", err)
			os.Exit(2) //lint:exit process boundary: encode failure in the lint CLI
		}
		fmt.Println(string(b))
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "sevlint: %d finding(s)\n", len(diags))
		os.Exit(1) //lint:exit process boundary: the lint gate's verdict
	}
}

// selectPasses resolves -passes; all reports whether the full set runs.
func selectPasses(spec string) (passes []*statan.Pass, all bool) {
	if spec == "" {
		return statan.Passes(), true
	}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		p := statan.PassByName(name)
		if p == nil {
			fmt.Fprintf(os.Stderr, "sevlint: unknown pass %q (see -list)\n", name)
			os.Exit(2) //lint:exit process boundary: flag error in the lint CLI
		}
		passes = append(passes, p)
	}
	return passes, false
}

// gated reports whether the rules apply to dir: a path through
// internal/ or cmd/ (examples, fixtures, and scratch dirs are not
// result-producing code).
func gated(dir string) bool {
	for _, s := range strings.Split(filepath.ToSlash(filepath.Clean(dir)), "/") {
		if s == "internal" || s == "cmd" {
			return true
		}
	}
	return false
}

// expand resolves argument patterns to package directories: a plain
// directory names itself; "dir/..." walks recursively, collecting
// every directory that holds at least one non-test Go file and
// skipping testdata, hidden, and VCS directories.
func expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		dir = filepath.Clean(dir)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		root, recursive := strings.CutSuffix(pat, "...")
		root = filepath.Clean(strings.TrimSuffix(root, "/"))
		if root == "" {
			root = "."
		}
		if !recursive {
			add(root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				add(filepath.Dir(path))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}
