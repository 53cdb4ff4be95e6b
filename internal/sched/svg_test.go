package sched

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteSVGBasics(t *testing.T) {
	in := inst(t, 2, 3, 1, 2)
	s, err := FromMapping(in, []int{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteSVG(&buf, "demo <run>"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "m0", "m1", "demo &lt;run&gt;", "<rect"} {
		if !strings.Contains(out, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
	// 3 task rectangles plus the background.
	if got := strings.Count(out, "<rect"); got != 4 {
		t.Fatalf("SVG has %d rects, want 4", got)
	}
}

func TestWriteSVGEmptySchedule(t *testing.T) {
	s := New(0, 2)
	var buf bytes.Buffer
	if err := s.WriteSVG(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "</svg>") {
		t.Fatal("empty schedule produced invalid SVG")
	}
}

func TestWriteSVGTinyTasksGetMinWidth(t *testing.T) {
	// A task of duration ~0 relative to the makespan must still render
	// a >= 1px rectangle.
	in := inst(t, 1, 1000, 0.0001)
	s, err := FromMapping(in, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteSVG(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `width="0"`) {
		t.Fatal("zero-width task rectangle")
	}
}
