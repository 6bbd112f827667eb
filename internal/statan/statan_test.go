package statan

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden diagnostic files from current output")

// fixtures are the testdata/src packages. Each runs through Run, the
// one configuration the gate ships: every pass plus suppression
// hygiene. Golden files live in testdata/golden/<name>.golden, one
// diagnostic per line with the fixture directory stripped from
// positions; regenerate with `go test ./internal/statan -run Fixtures -update`.
var fixtures = []string{"determinism", "robustness", "dispatch", "suppress"}

func TestFixtures(t *testing.T) {
	for _, name := range fixtures {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", name)
			got := runFixture(t, dir)
			golden := filepath.Join("testdata", "golden", name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics differ from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// runFixture loads dir, runs the gate over it, and renders the
// diagnostics one per line with dir stripped from positions so the
// golden files are location-independent.
func runFixture(t *testing.T, dir string) string {
	t.Helper()
	pkgs, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	var b strings.Builder
	for _, pkg := range pkgs {
		for _, d := range Run(pkg) {
			line := d.String()
			line = strings.ReplaceAll(line, dir+string(filepath.Separator), "")
			b.WriteString(line)
			b.WriteString("\n")
		}
	}
	return b.String()
}
