package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func runQuick(t *testing.T, id string) string {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(&buf, Options{Quick: true}); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return buf.String()
}

// artifact runs the experiment at Quick size and returns the named
// artifact it attached.
func artifact(t *testing.T, id, name string) string {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	sink := Sink{Writer: io.Discard}
	if err := e.run(&sink, Options{Quick: true}); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	for _, a := range sink.Artifacts {
		if a.Name == name {
			var buf bytes.Buffer
			if err := a.Write(&buf); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return buf.String()
		}
	}
	t.Fatalf("%s attached no %s (have %d artifacts)", id, name, len(sink.Artifacts))
	return ""
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"e1", "e10", "e11", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "table1", "table2"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs() = %v, want %v", got, want)
		}
	}
	if len(All()) != len(want) {
		t.Fatalf("All() has %d entries", len(All()))
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestTable1Output(t *testing.T) {
	out := runQuick(t, "table1")
	for _, want := range []string{"Th. 1", "Th. 2", "Th. 3", "Th. 4", "210", "Graham"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Output(t *testing.T) {
	out := runQuick(t, "table2")
	for _, want := range []string{"SABO", "ABO", "ρ1", "memory", "makespan"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table2 missing %q", want)
		}
	}
}

func TestFig1Output(t *testing.T) {
	out := runQuick(t, "fig1")
	for _, want := range []string{"Online", "Offline", "Theorem 1", "makespan", "m0", "m5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig1 missing %q:\n%s", want, out)
		}
	}
	// The blind schedule must be strictly worse than the oracle: both
	// makespans are printed; sanity-check the ratio line exists.
	if !strings.Contains(out, "measured ratio") {
		t.Fatal("fig1 missing measured ratio")
	}
}

func TestFig2Output(t *testing.T) {
	out := runQuick(t, "fig2")
	for _, want := range []string{"Phase 1", "Phase 2", "group", "replicas per task = 3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig2 missing %q:\n%s", want, out)
		}
	}
}

func TestFig3Output(t *testing.T) {
	out := runQuick(t, "fig3")
	for _, want := range []string{"alpha=1.1", "alpha=1.5", "alpha=2", "LS-Group",
		"LPT-NoChoice", "Lower bound", "Graham"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig3 missing %q", want)
		}
	}
}

func TestFig3CSV(t *testing.T) {
	lines := strings.Count(artifact(t, "fig3", "fig3.csv"), "\n")
	// 3 alphas × (16 divisors + 4 single points) + header.
	if lines != 3*20+1 {
		t.Fatalf("fig3.csv has %d lines", lines)
	}
}

func TestFig4Fig5Outputs(t *testing.T) {
	out4 := runQuick(t, "fig4")
	if !strings.Contains(out4, "S1") || !strings.Contains(out4, "S2") {
		t.Fatalf("fig4 missing task-set breakdown:\n%s", out4)
	}
	out5 := runQuick(t, "fig5")
	if !strings.Contains(out5, "replicated") {
		t.Fatalf("fig5 missing replication note")
	}
	// ABO replicates, so its memory must not be below SABO's on the
	// same instance — both reports print Mem_max.
	if !strings.Contains(out4, "Mem_max") || !strings.Contains(out5, "Mem_max") {
		t.Fatal("memory not reported")
	}
}

func TestFig6Output(t *testing.T) {
	out := runQuick(t, "fig6")
	for _, want := range []string{"SABO", "ABO", "Impossibility", "rho1=rho2=4/3", "rho1=rho2=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig6 missing %q", want)
		}
	}
}

func TestFig6CSV(t *testing.T) {
	csv := artifact(t, "fig6", "fig6.csv")
	if !strings.HasPrefix(csv, "m,alpha2,rho,series,") {
		t.Fatalf("fig6.csv header wrong: %q", strings.SplitN(csv, "\n", 2)[0])
	}
}

func TestE1Output(t *testing.T) {
	out := runQuick(t, "e1")
	for _, want := range []string{"replicas", "adversary", "guarantee", "uniform"} {
		if !strings.Contains(out, want) {
			t.Fatalf("e1 missing %q:\n%s", want, out)
		}
	}
}

func TestE2PassesAndReportsMargins(t *testing.T) {
	out := runQuick(t, "e2")
	if !strings.Contains(out, "PASS") {
		t.Fatalf("e2 did not pass:\n%s", out)
	}
	if strings.Contains(out, "VIOLATION") {
		t.Fatalf("e2 reported violations:\n%s", out)
	}
}

func TestE3Output(t *testing.T) {
	out := runQuick(t, "e3")
	for _, want := range []string{"SABO", "ABO", "tradeoff", "mem ratio"} {
		if !strings.Contains(out, want) && !strings.Contains(strings.ToLower(out), strings.ToLower(want)) {
			t.Fatalf("e3 missing %q:\n%s", want, out)
		}
	}
}

func TestE4Output(t *testing.T) {
	out := runQuick(t, "e4")
	for _, fam := range []string{"iterative", "spmv", "mapreduce", "bimodal"} {
		if !strings.Contains(out, fam) {
			t.Fatalf("e4 missing workload %q", fam)
		}
	}
	if !strings.Contains(out, "oracle") {
		t.Fatal("e4 missing oracle row")
	}
}

func TestE5Output(t *testing.T) {
	out := runQuick(t, "e5")
	if !strings.Contains(out, "tasks/sec") {
		t.Fatalf("e5 missing throughput column:\n%s", out)
	}
}

func TestE6Output(t *testing.T) {
	out := runQuick(t, "e6")
	for _, want := range []string{"LPT-Group", "LS-Group", "ReplicateTail", "replicas/task",
		"zipf", "iterative"} {
		if !strings.Contains(out, want) {
			t.Fatalf("e6 missing %q:\n%s", want, out)
		}
	}
}

func TestE7Output(t *testing.T) {
	out := runQuick(t, "e7")
	for _, want := range []string{"λ=1", "Th.1 bound", "limit α²"} {
		if !strings.Contains(out, want) {
			t.Fatalf("e7 missing %q:\n%s", want, out)
		}
	}
}

func TestE8Output(t *testing.T) {
	out := runQuick(t, "e8")
	for _, want := range []string{"true β", "β/α", "LPT-NoRestriction"} {
		if !strings.Contains(out, want) {
			t.Fatalf("e8 missing %q:\n%s", want, out)
		}
	}
}

func TestE9Output(t *testing.T) {
	out := runQuick(t, "e9")
	for _, want := range []string{"phi", "steal", "everywhere", "no-replication"} {
		if !strings.Contains(out, want) {
			t.Fatalf("e9 missing %q:\n%s", want, out)
		}
	}
}

func TestE10Output(t *testing.T) {
	out := runQuick(t, "e10")
	for _, want := range []string{"unsurvivable", "slowdown", "everywhere"} {
		if !strings.Contains(out, want) {
			t.Fatalf("e10 missing %q:\n%s", want, out)
		}
	}
	// No-replication must be unsurvivable in every trial (the crashed
	// machine always holds sole copies of pending tasks).
	if !strings.Contains(out, "4/4") {
		t.Fatalf("e10 quick mode: expected 4/4 unsurvivable for no-replication:\n%s", out)
	}
}

func TestE11Output(t *testing.T) {
	out := runQuick(t, "e11")
	for _, want := range []string{"poisson, load 0.15", "poisson, load 0.5",
		"mmpp (bursty), load 0.15", "p999", "wasted %", "no-replication",
		"cancel-on-start", "cancel-on-completion"} {
		if !strings.Contains(out, want) {
			t.Fatalf("e11 missing %q:\n%s", want, out)
		}
	}
	// The two cancellation policies must measurably diverge: the
	// cancel-on-completion rows race replicas, so they report non-zero
	// cancellations and different response quantiles than their
	// cancel-on-start twins.
	rowOf := func(section, label string) string {
		_, rest, ok := strings.Cut(out, "-- "+section+" --")
		if !ok {
			t.Fatalf("e11 missing section %q", section)
		}
		for _, line := range strings.Split(rest, "\n") {
			if strings.Contains(line, label) {
				return line
			}
		}
		t.Fatalf("e11 section %q missing row %q:\n%s", section, label, out)
		return ""
	}
	for _, section := range []string{"poisson, load 0.15", "mmpp (bursty), load 0.15"} {
		start := rowOf(section, "all + cancel-on-start")
		completion := rowOf(section, "all + cancel-on-completion")
		if strings.TrimSpace(strings.TrimPrefix(start, "all + cancel-on-start")) ==
			strings.TrimSpace(strings.TrimPrefix(completion, "all + cancel-on-completion")) {
			t.Fatalf("e11 %s: cancellation policies did not diverge:\n%s\n%s", section, start, completion)
		}
		// The cancelled column is last: racing replicas must actually
		// cancel some, so the row cannot end in a bare 0.
		if strings.HasSuffix(strings.TrimSpace(completion), " 0") {
			t.Fatalf("e11 %s: cancel-on-completion never cancelled a replica:\n%s", section, completion)
		}
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll is slow; run without -short")
	}
	var buf bytes.Buffer
	if err := RunAll(&buf, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	for _, id := range IDs() {
		if !strings.Contains(buf.String(), id+" — ") {
			t.Fatalf("RunAll output missing banner for %s", id)
		}
	}
}

func TestDeterministicOutputs(t *testing.T) {
	// Identical options must produce byte-identical reports for the
	// pure-analytic experiments and the seeded empirical ones (e5
	// prints wall time, so it is excluded).
	for _, id := range []string{"table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "e1", "e3", "e4", "e6", "e7", "e8", "e9", "e10", "e11"} {
		a := runQuick(t, id)
		b := runQuick(t, id)
		if a != b {
			t.Fatalf("%s output not deterministic", id)
		}
	}
}
