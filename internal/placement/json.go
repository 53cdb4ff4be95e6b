package placement

import (
	"encoding/json"
	"io"
	"strconv"

	"repro/internal/task"
)

// placementJSON is the wire form of a Placement; UnmarshalJSON decodes
// through it, AppendJSON writes it.
type placementJSON struct {
	M       int     `json:"m"`
	Sets    [][]int `json:"sets"`
	Groups  [][]int `json:"groups,omitempty"`
	GroupOf []int   `json:"group_of,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (p *Placement) MarshalJSON() ([]byte, error) { return p.AppendJSON(nil), nil }

// AppendJSON appends the placement exactly as encoding/json marshals
// placementJSON — a nil slice is null, an empty "groups" or "group_of"
// is left out — without reflection. A placement is integers only, so
// nothing in it is beyond the appender.
func (p *Placement) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"m":`...)
	dst = strconv.AppendInt(dst, int64(p.M), 10)
	dst = appendSets(append(dst, `,"sets":`...), p.Sets)
	if len(p.Groups) > 0 {
		dst = appendSets(append(dst, `,"groups":`...), p.Groups)
	}
	if len(p.GroupOf) > 0 {
		dst = task.AppendInts(append(dst, `,"group_of":`...), p.GroupOf)
	}
	return append(dst, '}')
}

// appendSets appends a [][]int: n replica sets of an answer.
//
//perf:hotpath
func appendSets(dst []byte, sets [][]int) []byte {
	if sets == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for j, set := range sets {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = task.AppendInts(dst, set)
	}
	return append(dst, ']')
}

// UnmarshalJSON implements json.Unmarshaler. Structural validation is
// deferred to Validate, which needs the instance.
func (p *Placement) UnmarshalJSON(data []byte) error {
	var w placementJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	p.M = w.M
	p.Sets = w.Sets
	p.Groups = w.Groups
	p.GroupOf = w.GroupOf
	return nil
}

// Write encodes the placement as JSON to w.
func (p *Placement) Write(w io.Writer) error {
	return json.NewEncoder(w).Encode(p)
}

// Read decodes a placement from JSON.
func Read(r io.Reader) (*Placement, error) {
	var p Placement
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, err
	}
	return &p, nil
}
