package main

import (
	"math"
	"sort"
	"strings"
	"time"

	"pokeemu/internal/campaign"
	"pokeemu/internal/solver"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-quantile of ds (0 when empty).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// layerAgg sums the spans of one layer call.
type layerAgg struct {
	dur   time.Duration
	max   time.Duration
	durs  []time.Duration
	calls int64
	alloc uint64
	steps int64
	fails int64
}

func (a *layerAgg) add(s *span) {
	a.dur += s.Dur
	a.max = max(a.max, s.Dur)
	a.durs = append(a.durs, s.Dur)
	a.calls++
	a.alloc += s.Alloc
	a.steps += s.Steps
	if s.Fail {
		a.fails++
	}
}

// tracedMetrics is every per-layer metric of a traced run: the span
// metrics, the run's diff counts, and the tracing overhead against the
// untraced reference wall time.
func tracedMetrics(t *tracer, root *span, o *outcome, refWall time.Duration) map[string]metric {
	m := layerMetrics(t, root)
	m["diff.lofi_diff_tests"] = metric{float64(o.counts["lofi_diff_tests"]), "count"}
	m["diff.hifi_diff_tests"] = metric{float64(o.counts["hifi_diff_tests"]), "count"}
	m["trace.overhead_ms"] = metric{ms(root.Dur - refWall), "ms"}
	return m
}

// layerMetrics derives every per-layer metric from the spans under root
// (the traced workload run). Put* calls are counted wherever they happen:
// only mix-warm's traced set-up writes a corpus.
func layerMetrics(t *tracer, root *span) map[string]metric {
	aggs := map[string]*layerAgg{}
	agg := func(op string) *layerAgg {
		if aggs[op] == nil {
			aggs[op] = &layerAgg{}
		}
		return aggs[op]
	}
	var sol spanTotals
	var summaryPaths, paths, treeNodes, bytesRead, hits, lookups int64
	verdicts := map[string]int64{}
	var hyb *span
	for _, s := range t.under(root) {
		agg(s.Layer + "." + s.Op).add(s)
		sol.add(s)
		switch s.Op {
		case "core.NewExplorer":
			summaryPaths = s.Paths
		case "core.Explorer.ExploreState":
			paths += s.Paths
			treeNodes += s.TreeNodes
		case "GetInstr", "GetExec", "GetSummary":
			lookups++
			bytesRead += s.Bytes
			if s.Hit {
				hits++
			}
		}
		if s.Verdict != "" {
			verdicts[s.Verdict]++
		}
		if s.Hybrid != nil {
			hyb = s
		}
	}
	var put time.Duration
	for _, s := range t.spans {
		if s.Layer == "corpus" && strings.HasPrefix(s.Op, "Put") {
			put += s.Dur
		}
	}

	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	count := func(name string, v int64) { set(name, float64(v), "count") }

	set("core.instrset_ms", ms(agg("core.ExploreInstructionSet").dur), "ms")
	set("symex.summary_ms", ms(agg("symex.core.NewExplorer").dur), "ms")
	count("symex.summary_paths", summaryPaths)

	explore := agg("symex.core.Explorer.ExploreState")
	set("symex.explore_ms", ms(explore.dur), "ms")
	set("symex.explore_max_handler_ms", ms(explore.max), "ms")
	count("symex.paths", paths)
	count("symex.tree_nodes", treeNodes)
	set("symex.alloc_mb", float64(explore.alloc)/(1<<20), "MB")

	count("solver.queries", sol.Queries)
	set("solver.memo_hit_ratio", ratio(sol.MemoHits, sol.MemoHits+sol.MemoMisses), "ratio")
	set("solver.subsume_ratio", ratio(sol.SubsumeHits, sol.Queries), "ratio")
	count("solver.conflicts", sol.Conflicts)
	count("solver.decisions", sol.Decisions)
	count("solver.propagations", sol.Propagations)
	count("solver.restarts", sol.Restarts)
	count("solver.reduce_removed", sol.ReduceRemoved)
	count("solver.reused_levels", sol.ReusedLevels)
	set("expr.intern_hit_ratio", ratio(sol.internHits, sol.internHits+sol.internMisses), "ratio")

	build, verify := agg("testgen.Build"), agg("testgen.Verify")
	set("testgen.build_ms", ms(build.dur), "ms")
	set("testgen.verify_ms", ms(verify.dur), "ms")
	count("testgen.built", verify.calls-verify.fails)
	count("testgen.gen_failed", build.fails)
	count("testgen.init_fault", verify.fails)

	for _, emu := range []string{"fidelis", "celer", "hwsim"} {
		a := agg("harness.RunBootBudget/" + emu)
		set("harness."+emu+"_ms", ms(a.dur), "ms")
		count("harness."+emu+"_steps", a.steps)
		set("harness."+emu+"_ns_per_step", ratio(int64(a.dur), a.steps), "ns")
		if emu == "fidelis" {
			set("harness.fidelis_p99_us", float64(percentile(a.durs, 0.99))/1e3, "us")
		}
	}

	cmp := agg("diff.Compare")
	set("diff.compare_ms", ms(cmp.dur), "ms")
	count("diff.compare_calls", cmp.calls)
	set("diff.compare_us_per_call", ratio(int64(cmp.dur), cmp.calls)/1e3, "us")

	set("corpus.get_instr_ms", ms(agg("corpus.GetInstr").dur), "ms")
	set("corpus.get_exec_ms", ms(agg("corpus.GetExec").dur+agg("corpus.ExecProgSHA").dur), "ms")
	set("machine.read_snapshot_ms", ms(agg("machine.ReadSnapshot").dur), "ms")
	set("corpus.hit_ratio", ratio(hits, lookups), "ratio")
	count("corpus.bytes_read", bytesRead)
	set("corpus.put_ms", ms(put), "ms")

	var stageMs, execsPerS, dedup float64
	var newCov, reseedTests, edges int64
	var hybAlloc uint64
	if hyb != nil {
		st := hyb.Hybrid
		stageMs = ms(hyb.Dur)
		execsPerS = float64(st.Execs) / hyb.Dur.Seconds()
		dedup = ratio(int64(st.Deduped), int64(st.Execs))
		newCov, reseedTests, edges = int64(st.NewCoverage), int64(st.ReseedTests), int64(st.Edges)
		hybAlloc = hyb.Alloc
	}
	set("hybrid.stage_ms", stageMs, "ms")
	set("hybrid.execs_per_s", execsPerS, "1/s")
	count("hybrid.new_coverage", newCov)
	set("hybrid.dedup_ratio", dedup, "ratio")
	count("hybrid.reseed_tests", reseedTests)
	count("hybrid.edges", edges)
	set("hybrid.alloc_mb", float64(hybAlloc)/(1<<20), "MB")

	eq := agg("equivcheck.Run")
	set("equivcheck.max_handler_ms", ms(eq.max), "ms")
	set("equivcheck.p98_handler_ms", ms(percentile(eq.durs, 0.98)), "ms")
	count("equivcheck.equiv", verdicts["EQUIV"])
	count("equivcheck.diverges", verdicts["DIVERGES"])
	count("equivcheck.unknown", verdicts["UNKNOWN"])

	set("campaign.unattributed_ms", ms(t.selfTime(root)), "ms")
	return m
}

// spanTotals sums the solver and intern-table counters of a set of spans.
type spanTotals struct {
	solver.Stats
	internHits, internMisses int64
}

func (st *spanTotals) add(s *span) {
	st.Stats = addStats(st.Stats, s.Solver, 1)
	st.internHits += s.InternHits
	st.internMisses += s.InternMiss
}

// campaignSolver is the totals in campaign.Result's shape, intern counts
// left out: they depend on what earlier runs in the process interned.
func (st *spanTotals) campaignSolver() campaign.SolverStats {
	return campaign.SolverStats{
		Queries: st.Queries, MemoHits: st.MemoHits, MemoMisses: st.MemoMisses,
		ReusedLevels: st.ReusedLevels, SubsumeHits: st.SubsumeHits, Restarts: st.Restarts,
		ReduceRuns: st.ReduceRuns, ReduceRemoved: st.ReduceRemoved,
		PortfolioRaces: st.PortfolioRaces, PortfolioCloneWins: st.PortfolioCloneWins,
	}
}
