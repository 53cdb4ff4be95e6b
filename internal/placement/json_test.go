package placement

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestAppendJSONMatchesTheEncoder: the appender prints what the
// reflective marshal of placementJSON prints, nil and empty slices
// included, and MarshalJSON is the appender.
func TestAppendJSONMatchesTheEncoder(t *testing.T) {
	for _, p := range []*Placement{
		{},
		{M: 3, Sets: [][]int{}},
		{M: 3, Sets: [][]int{{0, 1, 2}, nil, {}, {2}}},
		{M: 4, Sets: [][]int{{0, 1}, {2, 3}}, Groups: [][]int{{0, 1}, {2, 3}}, GroupOf: []int{0, 1}},
		{M: 4, Sets: [][]int{{0}}, Groups: [][]int{}, GroupOf: []int{}},
		{M: -1, Sets: [][]int{{-5}}, Groups: [][]int{nil}, GroupOf: []int{7}},
	} {
		want, err := json.Marshal(placementJSON{M: p.M, Sets: p.Sets, Groups: p.Groups, GroupOf: p.GroupOf})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.AppendJSON([]byte("x")); string(got) != "x"+string(want) {
			t.Errorf("AppendJSON wrote %s, the encoder %s", got[1:], want)
		}
		if got, err := json.Marshal(p); err != nil || string(got) != string(want) {
			t.Errorf("json.Marshal wrote %s (%v), want %s", got, err, want)
		}
	}
}

func TestPlacementJSONRoundTrip(t *testing.T) {
	in := inst(t, 4, 6)
	groups, err := PartitionGroups(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := New(4, 6)
	p.Groups = groups
	p.GroupOf = []int{0, 1, 0, 1}
	for j, g := range p.GroupOf {
		p.AssignSet(j, groups[g])
	}

	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(in); err != nil {
		t.Fatalf("round-tripped placement invalid: %v", err)
	}
	if got.M != p.M || got.N() != p.N() {
		t.Fatalf("shape changed: %dx%d", got.N(), got.M)
	}
	for j := range p.Sets {
		if len(got.Sets[j]) != len(p.Sets[j]) {
			t.Fatalf("task %d set changed", j)
		}
		for i := range p.Sets[j] {
			if got.Sets[j][i] != p.Sets[j][i] {
				t.Fatalf("task %d set changed", j)
			}
		}
	}
	if len(got.GroupOf) != 4 || got.GroupOf[1] != 1 {
		t.Fatalf("group mapping lost: %v", got.GroupOf)
	}
}

func TestPlacementJSONWithoutGroups(t *testing.T) {
	p := New(2, 3)
	p.Assign(0, 1)
	p.Assign(1, 2)
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "groups") {
		t.Fatalf("groups serialized for group-free placement: %s", buf.String())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Groups != nil {
		t.Fatal("groups materialized from nothing")
	}
}

func TestPlacementReadGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{")); err == nil {
		t.Fatal("garbage accepted")
	}
}
