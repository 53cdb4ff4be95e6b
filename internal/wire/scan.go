package wire

import (
	"bytes"
	"encoding/json"

	"repro/internal/task"
)

// Item is one work item as the scanner reads it: the item object's
// three fields, decoded, and Raw, the object's own bytes — a sub-slice
// of the text scanned, so forwarding Raw forwards what was validated.
type Item struct {
	Algorithm  string
	Instance   *task.Instance
	ExactLimit int
	Raw        []byte
}

// The keys of the batch envelope and of the item object, in the order
// their scanners switch on.
var (
	batchKeys = []string{"requests", "placement"}
	itemKeys  = []string{"algorithm", "instance", "exact_limit"}
)

// ScanItem reads data as one work item — a /v1/schedule body or a
// stream line — in one pass of task.Scanner. ok is false for anything
// but the canonical spelling (task.Scanner lists it), trailing data
// included: DecodeStrict into the caller's request type is then the
// decoder, so it stays the one source of accept/reject and of every
// error string.
func ScanItem(data []byte) (it Item, ok bool) {
	s := task.Scanner{Data: data}
	it, ok = scanItem(&s)
	return it, ok && s.End()
}

// ScanBatch reads data as a /v1/batch body, {"requests":[item, …]}; ok
// as ScanItem's. A non-nil placement is where the tier that takes a
// "placement" override (clusterd) has encoding/json decode that one
// value, strictly; to the others the key is the unknown field it is.
func ScanBatch(data []byte, placement any) (items []Item, ok bool) {
	s := task.Scanner{Data: data}
	_, ok = s.Object(batchKeys, func(k int) bool {
		if k == 1 {
			dec := json.NewDecoder(bytes.NewReader(s.Data[s.Pos:]))
			dec.DisallowUnknownFields()
			if placement == nil || dec.Decode(placement) != nil {
				return false
			}
			s.Pos += int(dec.InputOffset())
			return true
		}
		for more := s.Byte('['); more; more = s.Byte(',') {
			it, ok := scanItem(&s)
			if !ok {
				return false // an empty array too: DecodeStrict words it
			}
			items = append(items, it)
		}
		return s.Byte(']')
	})
	return items, ok && items != nil && s.End()
}

// scanItem consumes one item object.
func scanItem(s *task.Scanner) (it Item, ok bool) {
	s.Peek()
	start := s.Pos
	_, ok = s.Object(itemKeys, func(k int) (ok bool) {
		switch k {
		case 0:
			var name []byte
			name, ok = s.String()
			it.Algorithm = string(name)
		case 1:
			it.Instance, ok = s.Instance()
		default:
			it.ExactLimit, ok = s.Int()
		}
		return ok
	})
	it.Raw = s.Data[start:s.Pos]
	return it, ok
}
