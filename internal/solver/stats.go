package solver

import "sync/atomic"

// Process-wide CDCL core counters, aggregated across every solver instance.
// Everything here is atomic so the pokeemud /metrics endpoint can snapshot
// mid-campaign without racing the workers (a worker's solver may still be
// mutating its own non-atomic per-instance fields, but those are never
// read across goroutines; only these totals are).
var (
	conflictsTotal     atomic.Int64
	decisionsTotal     atomic.Int64
	propsTotal         atomic.Int64
	restartsTotal      atomic.Int64
	reduceRunsTotal    atomic.Int64
	reduceRemovedTotal atomic.Int64
	subsumeHitsTotal   atomic.Int64
)

// Stats is a consistent-enough snapshot of the process-wide solver
// counters: each field is individually exact at some instant (all reads
// are atomic), which is the contract /metrics needs.
type Stats struct {
	Queries       int64 // CheckLits calls
	MemoHits      int64 // answered from the assumption-set memo
	MemoMisses    int64 // reached the SAT core
	SubsumeHits   int64 // answered by the model-subsumption fast path
	ReusedLevels  int64 // assumption levels kept alive by the batched front-end
	Conflicts     int64
	Decisions     int64
	Propagations  int64
	Restarts      int64
	ReduceRuns    int64 // reduceDB passes
	ReduceRemoved int64 // learned clauses dropped by reduceDB

	// PortfolioRaces and PortfolioCloneWins are always zero: the solver
	// portfolio they counted has been removed. They remain only because
	// the benchmark module (perfbench) still names them, and go with the
	// next change to that module.
	PortfolioRaces     int64
	PortfolioCloneWins int64
}

// StatsSnapshot returns the process-wide solver counters. Safe to call
// concurrently with in-flight solves; every field is loaded atomically.
func StatsSnapshot() Stats {
	return Stats{
		Queries:       internalQueries.Load(),
		MemoHits:      memoHitsTotal.Load(),
		MemoMisses:    memoMissesTotal.Load(),
		SubsumeHits:   subsumeHitsTotal.Load(),
		ReusedLevels:  reusedLevelsTotal.Load(),
		Conflicts:     conflictsTotal.Load(),
		Decisions:     decisionsTotal.Load(),
		Propagations:  propsTotal.Load(),
		Restarts:      restartsTotal.Load(),
		ReduceRuns:    reduceRunsTotal.Load(),
		ReduceRemoved: reduceRemovedTotal.Load(),
	}
}
