package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
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

// TestQuietRefusesMoreOutput: -q prints the makespan alone, so -gantt
// or -trace beside it is refused in words naming both flags, before
// anything is printed; -svg writes a file and stays legal.
func TestQuietRefusesMoreOutput(t *testing.T) {
	for _, c := range []struct {
		flag   string
		gantt  bool
		traceN int
	}{{"-gantt", true, 0}, {"-trace", false, 5}} {
		var out bytes.Buffer
		err := run(&out, "lpt-nochoice", "uniform", "", 10, 2, 1.5, 0, 1, "uniform", c.gantt, true, "", c.traceN)
		if err == nil || !strings.Contains(err.Error(), "-q") || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("-q %s: err = %v, want one naming both flags", c.flag, err)
		}
		if out.Len() != 0 {
			t.Errorf("-q %s printed %q before refusing", c.flag, out.String())
		}
	}
	svg := filepath.Join(t.TempDir(), "q.svg")
	var out bytes.Buffer
	if err := run(&out, "lpt-nochoice", "uniform", "", 10, 2, 1.5, 0, 1, "uniform", false, true, svg, 0); err != nil {
		t.Fatalf("-q -svg: %v", err)
	}
	if _, err := os.Stat(svg); err != nil || strings.Count(out.String(), "\n") != 1 {
		t.Errorf("-q -svg printed %q, svg file: %v; want the makespan line and the file", out.String(), err)
	}
}

// TestQuietContradictionExitsOne runs the command itself (this test
// binary re-executed into main) with -q -trace 3: exit status 1, the
// refusal on stderr, nothing on stdout.
func TestQuietContradictionExitsOne(t *testing.T) {
	if os.Getenv("UNCERTSCHED_RUN_MAIN") == "1" {
		os.Args = []string{"uncertsched", "-q", "-trace", "3", "-n", "10", "-m", "2"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestQuietContradictionExitsOne$")
	cmd.Env = append(os.Environ(), "UNCERTSCHED_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit: %v, want status 1", err)
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), "-q and -trace") {
		t.Errorf("stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}
