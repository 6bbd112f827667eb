package statan

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The mutation tests prove the coverage passes catch real regressions:
// each one copies a real harness package into a temp dir, verifies the
// copy analyzes clean, seeds the exact defect the pass exists to catch
// (deleting one field copy, dropping one comparison), and asserts the
// expected diagnostic appears.

// coverPasses returns just the two coverage passes — the mutation copies
// live outside internal/, where the driver would not run the
// determinism/robustness rules either.
func coverPasses(t *testing.T) []*Pass {
	t.Helper()
	var ps []*Pass
	for _, name := range []string{"snapshotcover", "equalitycover"} {
		p := PassByName(name)
		if p == nil {
			t.Fatalf("unknown pass %q", name)
		}
		ps = append(ps, p)
	}
	return ps
}

// copyPackage copies every non-test .go file of srcDir into a fresh
// temp dir and returns it.
func copyPackage(t *testing.T, srcDir string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(srcDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// mutate rewrites one occurrence of old to new in dir/file, failing if
// the fragment is absent (the real source drifted and the test with it).
func mutate(t *testing.T, dir, file, old, new string) {
	t.Helper()
	path := filepath.Join(dir, file)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), old) {
		t.Fatalf("%s no longer contains %q; update the mutation test", file, old)
	}
	out := strings.Replace(string(data), old, new, 1)
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

// analyze runs the coverage passes over every package in dir.
func analyze(t *testing.T, dir string) []Diagnostic {
	t.Helper()
	pkgs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ds []Diagnostic
	for _, pkg := range pkgs {
		ds = append(ds, Run(pkg, RunOptions{Passes: coverPasses(t)})...)
	}
	return ds
}

func requireClean(t *testing.T, dir string) {
	t.Helper()
	if ds := analyze(t, dir); len(ds) != 0 {
		t.Fatalf("unmutated copy is not clean:\n%s", renderAll(ds))
	}
}

func requireFinding(t *testing.T, ds []Diagnostic, pass, rule, substr string) {
	t.Helper()
	for _, d := range ds {
		if d.Pass == pass && d.Rule == rule && strings.Contains(d.Msg, substr) {
			return
		}
	}
	t.Fatalf("no [%s/%s] diagnostic mentioning %q in:\n%s", pass, rule, substr, renderAll(ds))
}

func renderAll(ds []Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	if b.Len() == 0 {
		return "(no diagnostics)\n"
	}
	return b.String()
}

// TestSnapshotCoverCatchesDroppedSnapshotCopy deletes the line that
// copies core.fetchStall into the snapshot and asserts snapshotcover
// reports the field — the silent-checkpoint-drop bug the pass exists
// to prevent.
func TestSnapshotCoverCatchesDroppedSnapshotCopy(t *testing.T) {
	dir := copyPackage(t, filepath.Join("..", "cpu"))
	requireClean(t, dir)
	mutate(t, dir, "snapshot.go", "s.FetchStall = c.fetchStall", "")
	requireFinding(t, analyze(t, dir), "snapshotcover", "missing-field", "fetchStall")
}

// TestSnapshotCoverCatchesDroppedRestoreCopy deletes the restore side
// of the same field.
func TestSnapshotCoverCatchesDroppedRestoreCopy(t *testing.T) {
	dir := copyPackage(t, filepath.Join("..", "cpu"))
	requireClean(t, dir)
	mutate(t, dir, "snapshot.go", "c.fetchStall = s.FetchStall", "")
	ds := analyze(t, dir)
	requireFinding(t, ds, "snapshotcover", "missing-field", "fetchStall")
	requireFinding(t, ds, "snapshotcover", "missing-field", "not written by Restore")
}

// TestEqualityCoverCatchesDroppedComparison replaces the fetchStall
// comparison in StateEquals with a duplicate of another clause, so the
// field is still snapshotted and hashed but no longer compared — the
// pass must report both the coverage hole and the broken hash-subset
// invariant.
func TestEqualityCoverCatchesDroppedComparison(t *testing.T) {
	dir := copyPackage(t, filepath.Join("..", "cpu"))
	requireClean(t, dir)
	mutate(t, dir, "snapshot.go", "c.fetchStall != s.FetchStall", "c.fetchPC != s.FetchPC")
	ds := analyze(t, dir)
	requireFinding(t, ds, "equalitycover", "missing-field", "fetchStall")
	requireFinding(t, ds, "equalitycover", "hash-not-subset", "fetchStall")
}
