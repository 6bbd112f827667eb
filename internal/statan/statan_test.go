package statan

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden diagnostic files from current output")

// fixtures pairs each testdata/src package with the passes it
// exercises. Golden files live in testdata/golden/<name>.golden, one
// diagnostic per line with the fixture directory stripped from
// positions; regenerate with `go test ./internal/statan -run Fixtures -update`.
var fixtures = []struct {
	name      string
	passes    []string
	checkSupp bool
}{
	{name: "determinism", passes: []string{"determinism"}},
	{name: "robustness", passes: []string{"robustness"}},
	{name: "dispatch", passes: []string{"robustness"}},
	{name: "snapcover", passes: []string{"snapshotcover"}},
	{name: "eqcover", passes: []string{"equalitycover"}},
	{name: "suppress", passes: nil, checkSupp: true}, // all passes + hygiene
}

func TestFixtures(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", fx.name)
			got := runFixture(t, dir, fx.passes, fx.checkSupp)
			golden := filepath.Join("testdata", "golden", fx.name+".golden")
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

// runFixture loads dir, runs the named passes (nil = all), and renders
// the diagnostics one per line with dir stripped from positions so the
// golden files are location-independent.
func runFixture(t *testing.T, dir string, passNames []string, checkSupp bool) string {
	t.Helper()
	pkgs, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	var passes []*Pass
	for _, name := range passNames {
		p := PassByName(name)
		if p == nil {
			t.Fatalf("unknown pass %q", name)
		}
		passes = append(passes, p)
	}
	var b strings.Builder
	for _, pkg := range pkgs {
		for _, d := range Run(pkg, RunOptions{Passes: passes, CheckSuppressions: checkSupp}) {
			line := d.String()
			line = strings.ReplaceAll(line, dir+string(filepath.Separator), "")
			b.WriteString(line)
			b.WriteString("\n")
		}
	}
	return b.String()
}
