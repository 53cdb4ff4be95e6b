package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunGeneratedWorkload(t *testing.T) {
	err := run(io.Discard, "ls-group:2", "uniform", "", 20, 4, 1.5, 0, 1, "uniform", false, true, "", 0)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithGanttAndSVG(t *testing.T) {
	svg := filepath.Join(t.TempDir(), "out.svg")
	err := run(io.Discard, "lpt-norestriction", "zipf", "", 15, 3, 2, 0, 2, "extremes", true, false, svg, 5)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "</svg>") {
		t.Fatal("SVG file incomplete")
	}
}

func TestRunFromInstanceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "in.json")
	payload := `{"m":2,"alpha":2,"estimates":[1,2,3],"actuals":[2,1,3]}`
	if err := os.WriteFile(path, []byte(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, "lpt-nochoice", "", path, 0, 0, 0, 0, 0, "", false, true, "", 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunCompare(t *testing.T) {
	if err := runCompare(io.Discard, "uniform", "", 24, 6, 1.5, 0, 1, "uniform"); err != nil {
		t.Fatal(err)
	}
}

func TestRunCompareErrors(t *testing.T) {
	if err := runCompare(io.Discard, "bogus", "", 10, 2, 1.5, 0, 1, "uniform"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, "bogus", "uniform", "", 10, 2, 1.5, 0, 1, "uniform", false, true, "", 0); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run(io.Discard, "lpt-nochoice", "bogus", "", 10, 2, 1.5, 0, 1, "uniform", false, true, "", 0); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run(io.Discard, "lpt-nochoice", "uniform", "", 10, 2, 1.5, 0, 1, "bogus", false, true, "", 0); err == nil {
		t.Error("unknown model accepted")
	}
	if err := run(io.Discard, "lpt-nochoice", "", "/nonexistent.json", 0, 0, 0, 0, 0, "", false, true, "", 0); err == nil {
		t.Error("missing instance file accepted")
	}
}
