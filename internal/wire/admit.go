package wire

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Level is a bounded counter, the one admission primitive of the
// stack: TryAdd succeeds only when the whole increment fits under the
// cap, so admission is all-or-nothing per request and never overshoots
// under concurrency. schedd uses it one slot at a time as its solver
// semaphore; frontd admits a batch of n items whole or sheds it whole.
// Neither ever waits on it — a full level is answered with 429, not a
// queue. A nil *Level admits everything and holds nothing.
type Level struct {
	v     atomic.Int64
	max   int64
	gauge *obs.Gauge
}

// NewLevel returns an empty level capped at max; gauge mirrors the
// level into /metrics.
func NewLevel(max int, gauge *obs.Gauge) *Level {
	return &Level{max: int64(max), gauge: gauge}
}

// TryAdd reserves n units if all of them fit, without blocking.
func (l *Level) TryAdd(n int) bool {
	for l != nil {
		v := l.v.Load()
		if v+int64(n) > l.max {
			return false
		}
		if l.v.CompareAndSwap(v, v+int64(n)) {
			l.gauge.Add(int64(n))
			return true
		}
	}
	return true
}

// Sub returns n units reserved by a successful TryAdd.
func (l *Level) Sub(n int) {
	if l != nil {
		l.v.Add(int64(-n))
		l.gauge.Add(int64(-n))
	}
}

// Load returns the current level.
func (l *Level) Load() int64 {
	if l == nil {
		return 0
	}
	return l.v.Load()
}
