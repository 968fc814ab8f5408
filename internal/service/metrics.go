package service

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pokeemu/internal/campaign"
	"pokeemu/internal/equivcheck"
	"pokeemu/internal/expr"
	"pokeemu/internal/solver"
)

// Metrics are the daemon's built-in counters and histograms, expvar-style:
// no external dependencies, and one scrape of /metrics returns the whole
// document as JSON. Counters are monotonic since process start; the queued/
// running gauges in the rendered snapshot come from the live job table.
type Metrics struct {
	start time.Time

	JobsSubmitted atomic.Int64
	JobsStarted   atomic.Int64
	JobsCompleted atomic.Int64
	JobsFailed    atomic.Int64
	JobsCanceled  atomic.Int64
	JobsRejected  atomic.Int64

	// TestsExecuted counts per-test execution completions streamed from
	// job progress events; TestsReported sums TotalTests over completed
	// jobs (the two differ when jobs are canceled mid-flight or replay
	// cached outcomes).
	TestsExecuted atomic.Int64
	TestsReported atomic.Int64

	// Equivcheck counters accumulate over every /v1/equivcheck request:
	// runs, per-handler verdicts by kind, and how many verdicts were
	// answered from the shared corpus versus proved fresh.
	EquivRuns        atomic.Int64
	EquivHandlers    atomic.Int64
	EquivEquiv       atomic.Int64
	EquivDiverges    atomic.Int64
	EquivUnknown     atomic.Int64
	EquivCacheHits   atomic.Int64
	EquivCacheMisses atomic.Int64

	// Hybrid counters accumulate over every completed job that ran the
	// coverage-guided fuzzing stage: fuzz executions spent, inputs that
	// reached new coverage, divergent mutated inputs, distinct coverage
	// signatures and edges reported, and stages served from the corpus.
	HybridRuns       atomic.Int64
	HybridExecs      atomic.Int64
	HybridNewCov     atomic.Int64
	HybridDivergent  atomic.Int64
	HybridSignatures atomic.Int64
	HybridEdges      atomic.Int64
	HybridCacheHits  atomic.Int64

	JobDurationMS *Histogram
	TestsPerJob   *Histogram

	mu   sync.Mutex
	http map[string]*routeStats
}

type routeStats struct {
	count, errors int64
	latency       *Histogram
}

func newMetrics() *Metrics {
	return &Metrics{
		start:         time.Now(),
		JobDurationMS: newHistogram(5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000),
		TestsPerJob:   newHistogram(1, 10, 50, 100, 500, 1000, 5000, 10000, 50000),
		http:          make(map[string]*routeStats),
	}
}

// recordEquivcheck folds one equivcheck report into the counters.
func (m *Metrics) recordEquivcheck(rep *equivcheck.Report) {
	m.EquivRuns.Add(1)
	m.EquivHandlers.Add(int64(len(rep.Handlers)))
	m.EquivEquiv.Add(int64(rep.Equiv))
	m.EquivDiverges.Add(int64(rep.Diverges))
	m.EquivUnknown.Add(int64(rep.Unknown))
	m.EquivCacheHits.Add(int64(rep.Timing.CacheHits))
	m.EquivCacheMisses.Add(int64(rep.Timing.CacheMisses))
}

// recordHybrid folds one completed job's hybrid fuzzing stage into the
// counters.
func (m *Metrics) recordHybrid(res *campaign.Result) {
	if !res.HybridUsed {
		return
	}
	st := res.HybridStats
	m.HybridRuns.Add(1)
	m.HybridExecs.Add(int64(st.Execs))
	m.HybridNewCov.Add(int64(st.NewCoverage))
	m.HybridDivergent.Add(int64(st.Divergent))
	m.HybridSignatures.Add(int64(st.Signatures))
	m.HybridEdges.Add(int64(st.Edges))
	if res.Cache.FuzzHit {
		m.HybridCacheHits.Add(1)
	}
}

// observeHTTP records one served request on the named route.
func (m *Metrics) observeHTTP(route string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.http[route]
	if rs == nil {
		rs = &routeStats{latency: newHistogram(0.5, 1, 2, 5, 10, 25, 50, 100, 250, 1000)}
		m.http[route] = rs
	}
	rs.count++
	if code >= 400 {
		rs.errors++
	}
	rs.latency.Observe(float64(d) / float64(time.Millisecond))
}

// JobGauges are point-in-time job-table counts merged into the snapshot.
type JobGauges struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
}

// MetricsSnapshot is the JSON document served at /metrics.
type MetricsSnapshot struct {
	UptimeMS int64 `json:"uptime_ms"`
	Jobs     struct {
		Submitted int64 `json:"submitted"`
		Started   int64 `json:"started"`
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
		Canceled  int64 `json:"canceled"`
		Rejected  int64 `json:"rejected"`
		Queued    int   `json:"queued"`
		Running   int   `json:"running"`
	} `json:"jobs"`
	Tests struct {
		Executed int64 `json:"executed"`
		Reported int64 `json:"reported"`
	} `json:"tests"`
	// Equivcheck accumulates over every /v1/equivcheck request served since
	// start: per-handler symbolic verdicts by kind, and verdict-cache
	// effectiveness against the shared corpus.
	Equivcheck struct {
		Runs        int64 `json:"runs"`
		Handlers    int64 `json:"handlers"`
		Equiv       int64 `json:"equiv"`
		Diverges    int64 `json:"diverges"`
		Unknown     int64 `json:"unknown"`
		CacheHits   int64 `json:"cache_hits"`
		CacheMisses int64 `json:"cache_misses"`
	} `json:"equivcheck"`
	// Hybrid accumulates over every completed job that ran the coverage-
	// guided fuzzing stage: executions spent, coverage yield, divergent
	// mutated inputs, and stage-level cache hits.
	Hybrid struct {
		Runs       int64 `json:"runs"`
		Execs      int64 `json:"execs"`
		NewCov     int64 `json:"new_coverage"`
		Divergent  int64 `json:"divergent"`
		Signatures int64 `json:"signatures"`
		Edges      int64 `json:"edges"`
		CacheHits  int64 `json:"cache_hits"`
	} `json:"hybrid"`
	// Solver mirrors the process-wide symbolic-execution hot-path counters:
	// bit-vector solver queries, the assumption-set memo that answers
	// repeated queries without solving, and the expression intern table that
	// deduplicates term construction. Totals cover every job since start.
	Solver struct {
		Queries       int64 `json:"queries"`
		MemoHits      int64 `json:"memo_hits"`
		MemoMisses    int64 `json:"memo_misses"`
		SubsumeHits   int64 `json:"subsume_hits"`
		ReusedLevels  int64 `json:"reused_levels"`
		Conflicts     int64 `json:"conflicts"`
		Decisions     int64 `json:"decisions"`
		Propagations  int64 `json:"propagations"`
		Restarts      int64 `json:"restarts"`
		ReduceRuns    int64 `json:"reduce_runs"`
		ReduceRemoved int64 `json:"reduce_removed"`
		InternHits    int64 `json:"intern_hits"`
		InternMisses  int64 `json:"intern_misses"`
		InternResets  int64 `json:"intern_resets"`
		InternSize    int   `json:"intern_size"`
	} `json:"solver"`
	JobDurationMS HistogramSnapshot        `json:"job_duration_ms"`
	TestsPerJob   HistogramSnapshot        `json:"tests_per_job"`
	HTTP          map[string]RouteSnapshot `json:"http"`
}

// RouteSnapshot is one route's request counters and latency histogram.
type RouteSnapshot struct {
	Count     int64             `json:"count"`
	Errors    int64             `json:"errors"`
	LatencyMS HistogramSnapshot `json:"latency_ms"`
}

// Snapshot renders every counter and histogram at once.
func (m *Metrics) Snapshot(g JobGauges) MetricsSnapshot {
	var s MetricsSnapshot
	s.UptimeMS = time.Since(m.start).Milliseconds()
	s.Jobs.Submitted = m.JobsSubmitted.Load()
	s.Jobs.Started = m.JobsStarted.Load()
	s.Jobs.Completed = m.JobsCompleted.Load()
	s.Jobs.Failed = m.JobsFailed.Load()
	s.Jobs.Canceled = m.JobsCanceled.Load()
	s.Jobs.Rejected = m.JobsRejected.Load()
	s.Jobs.Queued = g.Queued
	s.Jobs.Running = g.Running
	s.Tests.Executed = m.TestsExecuted.Load()
	s.Tests.Reported = m.TestsReported.Load()
	s.Equivcheck.Runs = m.EquivRuns.Load()
	s.Equivcheck.Handlers = m.EquivHandlers.Load()
	s.Equivcheck.Equiv = m.EquivEquiv.Load()
	s.Equivcheck.Diverges = m.EquivDiverges.Load()
	s.Equivcheck.Unknown = m.EquivUnknown.Load()
	s.Equivcheck.CacheHits = m.EquivCacheHits.Load()
	s.Equivcheck.CacheMisses = m.EquivCacheMisses.Load()
	s.Hybrid.Runs = m.HybridRuns.Load()
	s.Hybrid.Execs = m.HybridExecs.Load()
	s.Hybrid.NewCov = m.HybridNewCov.Load()
	s.Hybrid.Divergent = m.HybridDivergent.Load()
	s.Hybrid.Signatures = m.HybridSignatures.Load()
	s.Hybrid.Edges = m.HybridEdges.Load()
	s.Hybrid.CacheHits = m.HybridCacheHits.Load()
	// One atomic snapshot for every SAT-core counter: these are read while
	// campaign workers are still solving, so they must come from the
	// solver's race-free totals, never from a live solver instance.
	core := solver.StatsSnapshot()
	s.Solver.Queries = core.Queries
	s.Solver.MemoHits, s.Solver.MemoMisses = core.MemoHits, core.MemoMisses
	s.Solver.SubsumeHits = core.SubsumeHits
	s.Solver.ReusedLevels = core.ReusedLevels
	s.Solver.Conflicts = core.Conflicts
	s.Solver.Decisions = core.Decisions
	s.Solver.Propagations = core.Propagations
	s.Solver.Restarts = core.Restarts
	s.Solver.ReduceRuns = core.ReduceRuns
	s.Solver.ReduceRemoved = core.ReduceRemoved
	s.Solver.InternHits, s.Solver.InternMisses, s.Solver.InternResets = expr.InternStats()
	s.Solver.InternSize = expr.InternSize()
	s.JobDurationMS = m.JobDurationMS.Snapshot()
	s.TestsPerJob = m.TestsPerJob.Snapshot()
	s.HTTP = make(map[string]RouteSnapshot)
	m.mu.Lock()
	defer m.mu.Unlock()
	for route, rs := range m.http {
		s.HTTP[route] = RouteSnapshot{
			Count:     rs.count,
			Errors:    rs.errors,
			LatencyMS: rs.latency.Snapshot(),
		}
	}
	return s
}

// Histogram is a fixed-bucket counting histogram: Counts[i] holds
// observations v <= Bounds[i] (and greater than the previous bound); the
// final count is the overflow bucket.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64
	count  int64
	sum    float64
}

// HistogramSnapshot is the JSON form of a histogram: len(Counts) ==
// len(Bounds)+1, the last entry counting observations above every bound.
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

func newHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe adds one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
	h.count++
	h.sum += v
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Count:  h.count,
		Sum:    h.sum,
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
	}
}
