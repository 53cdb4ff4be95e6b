package obs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestProfileRun writes both profiles into a temp dir around a run,
// then the stats table, and hands back the run's own error.
func TestProfileRun(t *testing.T) {
	dir := t.TempDir()
	p := Profile{Prog: "prog", CPU: filepath.Join(dir, "cpu.pprof"), Mem: filepath.Join(dir, "mem.pprof"), Stats: true}
	GetCounter("obs.profile_test").Inc()
	want := errors.New("work failed")
	var stderr bytes.Buffer
	ran := false
	if err := p.Run(&stderr, func() error { ran = true; return want }); err != want {
		t.Fatalf("Run returned %v, want the work's error", err)
	}
	if !ran {
		t.Fatal("work did not run")
	}
	for _, f := range []string{p.CPU, p.Mem} {
		if fi, err := os.Stat(f); err != nil {
			t.Error(err)
		} else if fi.Size() == 0 {
			t.Errorf("%s is empty", f)
		}
	}
	out := stderr.String()
	if !strings.HasPrefix(out, "--- prog internal stats ---\n") || !strings.Contains(out, "obs.profile_test") {
		t.Errorf("stderr = %q, want the banner and the table", out)
	}

	// A CPU profile that cannot be created fails the run before work.
	p = Profile{Prog: "prog", CPU: filepath.Join(dir, "missing", "cpu.pprof")}
	if err := p.Run(&stderr, func() error { t.Fatal("work ran"); return nil }); err == nil {
		t.Fatal("an uncreatable CPU profile was accepted")
	}
	// A heap profile that cannot be created is reported, not fatal.
	stderr.Reset()
	p = Profile{Prog: "prog", Mem: filepath.Join(dir, "missing", "mem.pprof")}
	if err := p.Run(&stderr, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stderr.String(), "prog: memprofile: ") {
		t.Errorf("stderr = %q, want the memprofile error", stderr.String())
	}
}
