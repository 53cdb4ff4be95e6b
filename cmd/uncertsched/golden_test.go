package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestGoldenOutput pins what uncertsched prints, byte for byte, on
// fixed seeds: the default run, -q, -gantt, -trace, -compare, -in and
// the -svg file. Refresh with:
//
//	go test ./cmd/uncertsched -run TestGoldenOutput -update
func TestGoldenOutput(t *testing.T) {
	dir := t.TempDir()
	svg := filepath.Join(dir, "out.svg")
	in := filepath.Join("testdata", "instance.json")
	cases := []struct {
		name string
		run  func(*bytes.Buffer) error
	}{
		{"default", func(w *bytes.Buffer) error {
			return run(w, "lpt-norestriction", "uniform", "", 100, 8, 1.5, 0, 1, "uniform", false, false, "", 0)
		}},
		{"quiet", func(w *bytes.Buffer) error {
			return run(w, "ls-group:4", "mapreduce", "", 200, 8, 1.5, 0, 3, "lognormal", false, true, "", 0)
		}},
		{"gantt", func(w *bytes.Buffer) error {
			return run(w, "ls-group:2", "zipf", "", 30, 4, 2, 0, 2, "extremes", true, false, "", 0)
		}},
		{"trace", func(w *bytes.Buffer) error {
			return run(w, "lpt-group:2", "uniform", "", 16, 4, 1.5, 0, 5, "uniform", false, false, "", 12)
		}},
		{"compare", func(w *bytes.Buffer) error {
			return runCompare(w, "uniform", "", 24, 6, 1.5, 0, 1, "uniform")
		}},
		{"in", func(w *bytes.Buffer) error {
			return run(w, "lpt-nochoice", "", in, 0, 0, 0, 0, 0, "", false, false, "", 0)
		}},
		{"svg", func(w *bytes.Buffer) error {
			return run(w, "tail:3", "uniform", "", 12, 3, 1.5, 0, 4, "uniform", false, false, svg, 0)
		}},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := c.run(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkGolden(t, c.name+".golden", bytes.ReplaceAll(buf.Bytes(), []byte(svg), []byte("OUT.svg")))
	}
	data, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "svg.svg", data)
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file:\n got:\n%s\nwant:\n%s", name, got, strings.TrimSpace(string(want)))
	}
}
