// Package fanout runs index-addressed tasks on a bounded worker pool. It is
// the one home of the contract every parallel stage relies on:
//
//   - Determinism: task(i) communicates only through caller-owned slots
//     addressed by i, and the caller merges the slots in index order after
//     Run returns. Scheduling order is then unobservable, which is what
//     makes reports byte-identical for any worker count.
//   - Panics: a task that panics costs only its own slot. Run recovers the
//     value and returns it at that index; the caller picks the policy
//     (record it, read the slot as skipped, or re-panic the first value in
//     index order, which is the same failure for any worker count).
//   - Cancellation: once ctx is done no new index is claimed; tasks already
//     running finish. An unclaimed index reports ran[i] == false and its
//     slot keeps its zero value.
package fanout

import (
	"context"
	"sync"
	"sync/atomic"
)

// Run calls task(i) at most once for every i in [0,n) on at most workers
// goroutines (workers < 1 means 1; never more than n) and returns when every
// claimed task has finished. panics[i] is the value task(i) panicked with,
// nil if it returned; ran[i] reports whether i was claimed before ctx was
// done. With ctx never done, every index runs exactly once.
func Run(ctx context.Context, workers, n int, task func(i int)) (panics []any, ran []bool) {
	panics = make([]any, n)
	ran = make([]bool, n)
	if n == 0 {
		return panics, ran
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				ran[i] = true
				panics[i] = call(task, i)
			}
		}()
	}
	wg.Wait()
	return panics, ran
}

// call runs task(i) and returns what it panicked with, if anything.
func call(task func(int), i int) (p any) {
	defer func() { p = recover() }()
	task(i)
	return nil
}
