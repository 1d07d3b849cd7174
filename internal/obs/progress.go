package obs

import (
	"context"
	"time"
)

// OTFSnapshot is a point-in-time sample of a running on-the-fly
// exploration, delivered on the progress hook a WithOTFProgress context
// installs. One final snapshot with Final=true is always delivered when
// the exploration ends, even if it finished inside the first sampling
// interval.
type OTFSnapshot struct {
	Elapsed       time.Duration // since exploration started
	Workers       int           // scheduler width
	Pairs         int64         // pairs interned in the visited table (occupancy)
	Explored      int64         // pairs fully processed
	Steals        int64         // successful deque steals so far
	ActiveBatches int64         // batches queued or in flight right now
	DequeDepths   []int         // per-worker deque depth
	SpecSubsets   int           // interned determinized-spec subsets (0 when not determinizing)
	Final         bool          // true on the last snapshot of the run
}

// Rate returns explored pairs per second over the sample's lifetime.
func (s OTFSnapshot) Rate() float64 {
	sec := s.Elapsed.Seconds()
	if sec <= 0 {
		return 0
	}
	return float64(s.Explored) / sec
}

// OTFProgressFunc receives progress snapshots. It is called from the
// sampler goroutine; keep it fast and do not call back into the checker.
type OTFProgressFunc func(OTFSnapshot)

type otfProgressKey struct{}

type otfProgress struct {
	fn    OTFProgressFunc
	every time.Duration
}

// WithOTFProgress asks any on-the-fly exploration run under the returned
// context to deliver progress snapshots to fn, roughly every interval
// (0 = the checker's default). This threads the hook through the facade
// and engine without widening their signatures.
func WithOTFProgress(ctx context.Context, fn OTFProgressFunc, every time.Duration) context.Context {
	return context.WithValue(ctx, otfProgressKey{}, &otfProgress{fn: fn, every: every})
}

// OTFProgressFrom returns the context's progress hook and interval, or
// (nil, 0).
func OTFProgressFrom(ctx context.Context) (OTFProgressFunc, time.Duration) {
	p, _ := ctx.Value(otfProgressKey{}).(*otfProgress)
	if p == nil {
		return nil, 0
	}
	return p.fn, p.every
}
