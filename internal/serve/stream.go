// Streaming surface: the open-system counterpart of /v1/batch.
// /v1/stream accepts newline-delimited JSON — one schedule request per
// line — and answers with one NDJSON result line per item, flushed as
// soon as it is computed, so a client submitting an open stream of work
// sees results while later items are still in flight (or not yet
// written).

package serve

import (
	"context"
	"net/http"

	"repro/internal/wire"
)

// StreamItem is one NDJSON result line of /v1/stream: a BatchItem
// whose Index is the zero-based input line position (blank lines not
// counted).
type StreamItem = BatchItem

// handleStream serves POST /v1/stream on the shared pump (wire.Pump)
// with a window of one and every line resolved on the spot: items are
// solved sequentially in the pump's reader, so the body is consumed at
// processing speed and the stream never runs more than the one solve
// its semaphore slot paid for. Per-item failures (bad JSON, bad
// instance, solver rejection) are reported on that item's line and the
// stream continues.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	wire.Pump(r.Context(), w, r.Body,
		wire.Stream{MaxLineBytes: s.cfg.MaxBodyBytes, MaxItems: s.cfg.MaxStreamItems, Window: 1},
		func(_ context.Context, idx int, line []byte) (StreamItem, func() StreamItem) {
			mStreamItem.Inc()
			req, err := DecodeItem(line, s.limits)
			if err != nil {
				return wire.Failed(idx, err.Error()), nil
			}
			return s.solveItem(idx, req), nil
		})
}
