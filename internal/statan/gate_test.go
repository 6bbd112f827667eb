package statan

import (
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoIsClean is the static-analysis gate, the one place it runs:
// every package under internal/ and cmd/ must pass every pass and the
// suppression hygiene check. Fixture packages under testdata/ are
// excluded — they exist to contain violations — and so are examples/,
// which is demo code.
func TestRepoIsClean(t *testing.T) {
	var dirs []string
	roots := []string{filepath.Join("..", "..", "internal"), filepath.Join("..", "..", "cmd")}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
				dir := filepath.Dir(path)
				if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
					dirs = append(dirs, dir)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(dirs) < 10 {
		t.Fatalf("found only %d package directories under internal/ and cmd/; the walk is broken", len(dirs))
	}

	var bad []string
	for _, dir := range dirs {
		pkgs, err := LoadDir(dir)
		if err != nil {
			t.Errorf("LoadDir(%s): %v", dir, err)
			continue
		}
		for _, pkg := range pkgs {
			for _, d := range Run(pkg) {
				bad = append(bad, d.String())
			}
		}
	}
	if len(bad) != 0 {
		t.Errorf("static-analysis findings in the repo:\n%s", strings.Join(bad, "\n"))
	}
}
