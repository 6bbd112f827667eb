package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestExpandSkipsFixtureAndHiddenDirs(t *testing.T) {
	root := t.TempDir()
	for _, dir := range []string{
		"a",
		filepath.Join("a", "testdata", "src"),
		filepath.Join("a", ".git"),
		filepath.Join("a", "_scratch"),
		"empty",
	} {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	files := map[string]string{
		filepath.Join("a", "a.go"):                    "package a\n",
		filepath.Join("a", "a_test.go"):               "package a\n", // test-only does not qualify a dir
		filepath.Join("a", "testdata", "src", "x.go"): "package x\n",
		filepath.Join("a", ".git", "g.go"):            "package g\n",
		filepath.Join("a", "_scratch", "s.go"):        "package s\n",
		filepath.Join("empty", "README"):              "",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(root, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	got, err := expand([]string{filepath.Join(root, "...")})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(root, "a")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("expand = %v, want %v", got, want)
	}

	// A plain (non-...) pattern names its directory unconditionally.
	got, err = expand([]string{filepath.Join(root, "empty")})
	if err != nil {
		t.Fatal(err)
	}
	want = []string{filepath.Join(root, "empty")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("expand = %v, want %v", got, want)
	}
}

func TestScopedGatesDeterminismToHarnessCode(t *testing.T) {
	for _, c := range []struct {
		dir  string
		want bool
	}{
		{filepath.Join("internal", "cpu"), true},
		{filepath.Join("cmd", "sevrepro"), true},
		{filepath.Join("examples", "quickstart"), false},
	} {
		if got := gated(c.dir); got != c.want {
			t.Errorf("gated(%s) = %v, want %v", c.dir, got, c.want)
		}
	}
}
