package main

import (
	"bytes"
	"io"
	"testing"
)

func TestParseAlphas(t *testing.T) {
	got, err := parseAlphas("1.1, 1.5,2")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1.1 || got[2] != 2 {
		t.Fatalf("parseAlphas = %v", got)
	}
}

func TestParseAlphasErrors(t *testing.T) {
	for _, bad := range []string{"", "x", "0.5", "1.5,,2", "1.5,0.9"} {
		if _, err := parseAlphas(bad); err == nil {
			t.Errorf("parseAlphas(%q) accepted", bad)
		}
	}
}

func TestRunModes(t *testing.T) {
	// All three modes must complete without error on small parameters.
	if err := run(io.Discard, "ratio", 12, 0, "1.5", 2, 1, 1, 1, "iterative", 0); err != nil {
		t.Errorf("ratio mode: %v", err)
	}
	if err := run(io.Discard, "memory", 5, 0, "", 3, 1, 1, 1, "iterative", 0); err != nil {
		t.Errorf("memory mode: %v", err)
	}
	if err := run(io.Discard, "emp", 4, 12, "1.25", 2, 1, 2, 1, "uniform", 0); err != nil {
		t.Errorf("emp mode: %v", err)
	}
}

func TestRunRejectsBadMode(t *testing.T) {
	if err := run(io.Discard, "nope", 4, 0, "1.5", 2, 1, 1, 1, "uniform", 0); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestRunRatioRejectsBadAlpha(t *testing.T) {
	if err := run(io.Discard, "ratio", 4, 0, "0.5", 2, 1, 1, 1, "uniform", 0); err == nil {
		t.Fatal("alpha < 1 accepted")
	}
}

func TestRunEmpRejectsBadWorkload(t *testing.T) {
	if err := run(io.Discard, "emp", 4, 10, "1.5", 2, 1, 1, 1, "bogus", 0); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestEmpCSVIndependentOfWorkers: emp mode's CSV is the same bytes on
// one worker and on four.
func TestEmpCSVIndependentOfWorkers(t *testing.T) {
	var one, four bytes.Buffer
	if err := run(&one, "emp", 6, 60, "1,1.5,2", 2, 1, 6, 3, "iterative", 1); err != nil {
		t.Fatal(err)
	}
	if err := run(&four, "emp", 6, 60, "1,1.5,2", 2, 1, 6, 3, "iterative", 4); err != nil {
		t.Fatal(err)
	}
	if one.Len() == 0 || !bytes.Equal(one.Bytes(), four.Bytes()) {
		t.Fatalf("emp CSV differs across worker counts:\n1: %s\n4: %s", one.String(), four.String())
	}
}
