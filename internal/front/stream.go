// Streaming entry: the open-system face of the front tier, on the
// shared stream pump (wire.Pump, which states the ordering and
// backpressure contract; the window is Workers). Each valid, admitted
// line is dispatched to its ring shard concurrently, shed and invalid
// lines resolve on the spot, and admission control sheds what even the
// pump's window cannot hold.

package front

import (
	"bytes"
	"context"
	"net/http"

	"repro/internal/serve"
	"repro/internal/wire"
)

func (f *Front) handleStream(w http.ResponseWriter, r *http.Request) {
	defer tStream.Start()()
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, f.cfg.MaxBodyBytes)
	}
	ctx, cancel := context.WithTimeout(r.Context(), f.cfg.StreamTimeout)
	defer cancel()

	wire.Pump(ctx, w, r.Body,
		wire.Stream{MaxLineBytes: f.cfg.MaxBodyBytes, MaxItems: f.cfg.MaxStreamItems, Window: f.cfg.Workers},
		func(ctx context.Context, idx int, line []byte) (Item, func() Item) {
			mStreamItems.Inc()
			// The pump reuses line; the copy is what gets forwarded, and
			// like a body wire.ReadBody made it is never pooled.
			req, err := serve.DecodeItem(bytes.Clone(line), f.limits)
			if err != nil {
				return wire.Failed(idx, err.Error()), nil
			}
			if !f.cfg.DisableShedding && !f.admitted.TryAdd(1) {
				// Shed before queue, per item: the stream stays up and
				// ordered, the overload is reported in-band.
				mShed.Inc()
				return wire.Failed(idx, "shed: admission cap reached; retry after "+f.retryAfterValue()+"s"), nil
			}
			return Item{}, func() Item {
				item := f.dispatchItem(ctx, idx, req)
				if !f.cfg.DisableShedding {
					f.admitted.Sub(1)
				}
				return item
			}
		})
}
