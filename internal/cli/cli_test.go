package cli

import (
	"os"
	"path/filepath"
	"testing"

	"sevsim/internal/compiler"
)

func TestMarchResolution(t *testing.T) {
	for _, name := range []string{"a15", "A15", "Cortex-A15-like"} {
		cfg, err := March(name)
		if err != nil || cfg.CPU.XLEN != 32 {
			t.Errorf("March(%q) = %v, %v", name, cfg.Name, err)
		}
	}
	for _, name := range []string{"a72", "Cortex-A72-like"} {
		cfg, err := March(name)
		if err != nil || cfg.CPU.XLEN != 64 {
			t.Errorf("March(%q) = %v, %v", name, cfg.Name, err)
		}
	}
	if _, err := March("m1"); err == nil {
		t.Error("unknown march accepted")
	}
}

func TestTargetDerivation(t *testing.T) {
	cfg, _ := March("a72")
	tgt := compiler.TargetFor(cfg)
	if tgt.XLEN != 64 || tgt.NumArchRegs != 32 {
		t.Errorf("TargetFor = %+v", tgt)
	}
}

func TestLoadSource(t *testing.T) {
	if _, _, err := LoadSource("", "", 0); err == nil {
		t.Error("empty selection accepted")
	}
	if _, _, err := LoadSource("qsort", "somefile", 0); err == nil {
		t.Error("both selections accepted")
	}
	name, src, err := LoadSource("qsort", "", 0)
	if err != nil || name != "qsort" || len(src) == 0 {
		t.Errorf("benchmark load failed: %v", err)
	}
	if _, _, err := LoadSource("nosuch", "", 0); err == nil {
		t.Error("unknown benchmark accepted")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "p.mc")
	if err := os.WriteFile(path, []byte("func main() {}"), 0o644); err != nil {
		t.Fatal(err)
	}
	name, src, err = LoadSource("", path, 0)
	if err != nil || name != path || src != "func main() {}" {
		t.Errorf("file load: %q %q %v", name, src, err)
	}
	if _, _, err := LoadSource("", filepath.Join(dir, "missing.mc"), 0); err == nil {
		t.Error("missing file accepted")
	}
}
