// Command sevlint is sevsim's static-analysis gate, built on the
// internal/statan framework. It enforces the invariants the
// reproduction's headline guarantees rest on — byte-identical
// study.json across parallelism, kill-and-resume, and checkpoint
// fast-forward — as machine-checked facts rather than DESIGN.md
// arguments:
//
//	determinism      no map ranges, wall-clock reads, or global
//	                 math/rand in result-producing code
//	robustness       no os.Exit outside marked process boundaries,
//	                 no bare signal.Notify, no http.Server without
//	                 ReadHeaderTimeout or served without Shutdown
//	                 wiring, no time.Sleep polling loops in dispatch
//	                 code (use the shared backoff policy)
//	snapshotcover    every field of a Snapshot/Restore struct is
//	                 checkpointed, or //snapshot:skip <reason>
//	equalitycover    every checkpointed field is compared by the
//	                 fastpath equality relation, or
//	                 //equality:dead <reason>; StateHash mixes only
//	                 compared fields
//
// The determinism and robustness rules apply to internal/ and cmd/
// (examples and fixtures are demo code); the coverage passes run
// everywhere their trigger shapes appear. Line suppressions
// ("//lint:<key> <reason>") and field annotations require a reason,
// and stale suppressions are themselves findings. Test files are
// exempt.
//
// Usage:
//
//	go run ./cmd/sevlint ./...              # whole-repo gate (CI)
//	go run ./cmd/sevlint ./internal/cpu     # one directory
//	go run ./cmd/sevlint -json ./...        # machine-readable output
//	go run ./cmd/sevlint -passes snapshotcover,equalitycover ./internal/...
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
		passes := scoped(selected, dir)
		if len(passes) == 0 {
			continue
		}
		for _, pkg := range pkgs {
			diags = append(diags, statan.Run(pkg, statan.RunOptions{
				Passes: passes,
				// Stale-suppression detection is only sound when every
				// rule a suppression could serve actually ran.
				CheckSuppressions: all && len(passes) == len(selected),
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

// scoped filters the pass set for one directory: the determinism and
// robustness rules gate internal/ and cmd/ only (examples, fixtures,
// and scratch dirs are not result-producing code), while the coverage
// passes run everywhere their trigger shapes appear.
func scoped(passes []*statan.Pass, dir string) []*statan.Pass {
	gated := hasSegment(dir, "internal") || hasSegment(dir, "cmd")
	var out []*statan.Pass
	for _, p := range passes {
		switch p.Name {
		case "determinism", "robustness":
			if gated {
				out = append(out, p)
			}
		default:
			out = append(out, p)
		}
	}
	return out
}

// hasSegment reports whether the cleaned path contains the named
// path segment.
func hasSegment(path, seg string) bool {
	for _, s := range strings.Split(filepath.ToSlash(filepath.Clean(path)), "/") {
		if s == seg {
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
