package fanout

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestRun pins the pool contract every parallel stage relies on: each index
// runs exactly once, a panic stays in its own slot with its value,
// cancellation stops claims without abandoning in-flight tasks, and no more
// than workers tasks ever run at once.
func TestRun(t *testing.T) {
	t.Run("exactly_once", func(t *testing.T) {
		for _, workers := range []int{0, 1, 3, 16} {
			for _, n := range []int{0, 1, 37} {
				hits := make([]atomic.Int32, n)
				panics, ran := Run(context.Background(), workers, n, func(i int) { hits[i].Add(1) })
				if len(panics) != n || len(ran) != n {
					t.Fatalf("workers=%d n=%d: got %d panics, %d ran slots", workers, n, len(panics), len(ran))
				}
				for i := range hits {
					if hits[i].Load() != 1 || !ran[i] || panics[i] != nil {
						t.Errorf("workers=%d n=%d: index %d ran %d times (ran=%v, panic=%v)",
							workers, n, i, hits[i].Load(), ran[i], panics[i])
					}
				}
			}
		}
	})

	t.Run("panic_slot", func(t *testing.T) {
		for _, workers := range []int{1, 3, 16} {
			var hits [37]atomic.Int32
			panics, ran := Run(context.Background(), workers, len(hits), func(i int) {
				hits[i].Add(1)
				if i == 4 || i == 30 {
					panic(fmt.Sprintf("boom %d", i))
				}
			})
			for i := range hits {
				want := any(nil)
				if i == 4 || i == 30 {
					want = fmt.Sprintf("boom %d", i)
				}
				if panics[i] != want {
					t.Errorf("workers=%d: panics[%d] = %v, want %v", workers, i, panics[i], want)
				}
				if hits[i].Load() != 1 || !ran[i] {
					t.Errorf("workers=%d: index %d ran %d times (ran=%v) beside a panicking slot",
						workers, i, hits[i].Load(), ran[i])
				}
			}
		}
	})

	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// Two workers claim indices 0 and 1. Whichever task gets index 1
		// cancels; the task holding index 0 is still in flight and must run
		// to completion, and no index after 1 may be claimed.
		canceled := make(chan struct{})
		done := make([]bool, 37)
		panics, ran := Run(ctx, 2, len(done), func(i int) {
			switch i {
			case 0:
				<-canceled
			case 1:
				cancel()
				close(canceled)
			}
			done[i] = true
		})
		for i := range done {
			claimed := i < 2
			if ran[i] != claimed || done[i] != claimed || panics[i] != nil {
				t.Errorf("index %d: ran=%v done=%v panic=%v, want ran=done=%v",
					i, ran[i], done[i], panics[i], claimed)
			}
		}

		panics, ran = Run(ctx, 4, 5, func(i int) { t.Errorf("index %d claimed after cancellation", i) })
		for i := range ran {
			if ran[i] || panics[i] != nil {
				t.Errorf("done ctx: index %d ran=%v panic=%v", i, ran[i], panics[i])
			}
		}
	})

	t.Run("high_water", func(t *testing.T) {
		for _, workers := range []int{0, 1, 3, 16} {
			limit := max(workers, 1)
			for _, n := range []int{1, 2, 37} {
				var live, peak atomic.Int32
				Run(context.Background(), workers, n, func(int) {
					cur := live.Add(1)
					for {
						p := peak.Load()
						if cur <= p || peak.CompareAndSwap(p, cur) {
							break
						}
					}
					for i := 0; i < 1000; i++ {
						_ = live.Load() // widen the window for overlap
					}
					live.Add(-1)
				})
				if p := int(peak.Load()); p > min(limit, n) {
					t.Errorf("workers=%d n=%d: %d tasks ran at once", workers, n, p)
				}
			}
		}
	})
}
