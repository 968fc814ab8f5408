package selfcheck

import (
	"fmt"
	"reflect"
	"sort"

	"pokeemu/internal/core"
	"pokeemu/internal/solver"
	"pokeemu/internal/symex"
)

// splitmix64 mirrors the solver's deterministic PRNG so the harness's
// random instances are reproducible from a seed alone.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func randCNF(seed uint64, nVars, nClauses int) [][]solver.Lit {
	state := seed
	next := func(n int) int {
		state = splitmix64(state)
		return int(state % uint64(n))
	}
	out := make([][]solver.Lit, 0, nClauses)
	for i := 0; i < nClauses; i++ {
		c := make([]solver.Lit, 3)
		for j := range c {
			c[j] = solver.MkLit(next(nVars), next(2) == 1)
		}
		out = append(out, c)
	}
	return out
}

func randAssumps(seed uint64, nVars, steps int) [][]solver.Lit {
	state := seed ^ 0xabcdef
	next := func(n int) int {
		state = splitmix64(state)
		return int(state % uint64(n))
	}
	var cur []solver.Lit
	out := make([][]solver.Lit, 0, steps)
	for i := 0; i < steps; i++ {
		switch {
		case len(cur) > 0 && next(4) == 0:
			cur = cur[:next(len(cur))]
		case len(cur) < nVars/2:
			cur = append(cur, solver.MkLit(next(nVars), next(2) == 1))
		}
		out = append(out, append([]solver.Lit(nil), cur...))
	}
	return out
}

// configuration is one CDCL setup under differential test.
type configuration struct {
	name  string
	build func() *solver.CDCL
}

// newCDCL allocates a solver with nVars variables and the given clauses.
func newCDCL(nVars int, clauses [][]solver.Lit, tune func(*solver.CDCL)) *solver.CDCL {
	s := solver.NewSat()
	for v := 0; v < nVars; v++ {
		s.NewVar()
	}
	if tune != nil {
		tune(s)
	}
	for _, c := range clauses {
		if !s.AddClause(c...) {
			break
		}
	}
	return s
}

// RandomDifferential cross-checks the production configuration (reduceDB
// forced aggressive, restarts, optionally seeded), the frozen reference
// configuration (no reduction — the pre-overhaul solver behavior), and the
// independent DPLL solver over seeded random 3-SAT instances and
// incremental assumption-sequence workloads. Every verdict must agree.
// With solver.Validate on (the harness tests enable it), every Sat model
// is additionally checked against the full clause set.
func RandomDifferential(seeds int) error {
	const nVars = 30
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		clauses := randCNF(seed, nVars, 120)
		ref := newRefDPLL(nVars, clauses)
		configs := []configuration{
			// Production shape, reduction forced to trigger on these small
			// instances so arena compaction is actually exercised.
			{"arena+reduce", func() *solver.CDCL {
				return newCDCL(nVars, clauses, func(s *solver.CDCL) { s.ReduceBase = 20 })
			}},
			// Production shape under a nonzero Seed (perturbed restarts
			// and polarities).
			{"arena+reduce+seed", func() *solver.CDCL {
				return newCDCL(nVars, clauses, func(s *solver.CDCL) {
					s.ReduceBase = 20
					s.Seed = splitmix64(seed)
				})
			}},
			// Frozen reference: learned clauses are never dropped.
			{"reference", func() *solver.CDCL {
				return newCDCL(nVars, clauses, func(s *solver.CDCL) { s.NoReduce = true })
			}},
		}
		// Whole-formula verdicts.
		want := ref.solve(nil)
		for _, cf := range configs {
			if got := cf.build().Solve(nil); got != want {
				return fmt.Errorf("seed %d: %s solved %v, reference DPLL says %v", seed, cf.name, got, want)
			}
		}
		// Incremental assumption sequences, batched and unbatched.
		for _, reuse := range []bool{false, true} {
			solvers := make([]*solver.CDCL, len(configs))
			for i, cf := range configs {
				solvers[i] = cf.build()
				solvers[i].Reuse = reuse
			}
			for qi, assumps := range randAssumps(seed, nVars, 40) {
				want := ref.solve(assumps)
				for i, cf := range configs {
					if got := solvers[i].Solve(assumps); got != want {
						return fmt.Errorf("seed %d query %d (reuse=%v): %s solved %v, reference DPLL says %v",
							seed, qi, reuse, cf.name, got, want)
					}
				}
			}
		}
	}
	return nil
}

// keysOf returns the sorted keys of a map keyed by variable name.
func keysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// CampaignReplay replays a slice of the real campaign query workload: it
// symbolically explores the given handlers twice — once under the
// production solver configuration (reduceDB + model subsumption + batched
// front-end) and once under the frozen reference configuration — and
// requires the explored path structure (path order, outcomes, exhaustion,
// the state-variable universe) to be identical. Feasibility verdicts are
// budget-free, so any disagreement means one configuration answered a
// query wrongly.
func CampaignReplay(handlers []string, maxPaths int) error {
	wantSet := make(map[string]bool, len(handlers))
	for _, h := range handlers {
		wantSet[h] = true
	}
	instrSet := core.ExploreInstructionSet()
	var picked []*core.UniqueInstr
	for _, u := range instrSet.Unique {
		if wantSet[u.Spec.Name] {
			picked = append(picked, u)
			wantSet[u.Spec.Name] = false
		}
	}
	if len(picked) == 0 {
		return fmt.Errorf("selfcheck: no instructions matched handlers %v", handlers)
	}

	explore := func(opts symex.Options) ([]*core.ExploreResult, error) {
		ex, err := core.NewExplorer(opts)
		if err != nil {
			return nil, err
		}
		out := make([]*core.ExploreResult, 0, len(picked))
		for _, u := range picked {
			r, err := ex.ExploreState(u)
			if err != nil {
				return nil, fmt.Errorf("explore %s: %w", u.Key(), err)
			}
			out = append(out, r)
		}
		return out, nil
	}

	prod := symex.DefaultOptions()
	prod.MaxPaths = maxPaths
	refOpts := prod
	refOpts.Solver = solver.Options{NoBatch: true, NoSubsume: true, NoReduce: true}

	got, err := explore(prod)
	if err != nil {
		return err
	}
	want, err := explore(refOpts)
	if err != nil {
		return err
	}
	for i := range picked {
		g, w := got[i], want[i]
		key := picked[i].Key()
		if len(g.Tests) != len(w.Tests) {
			return fmt.Errorf("%s: production explored %d paths, reference %d", key, len(g.Tests), len(w.Tests))
		}
		if g.Exhausted != w.Exhausted {
			return fmt.Errorf("%s: exhausted %v vs %v", key, g.Exhausted, w.Exhausted)
		}
		// The state-variable universe (every test of one exploration shares
		// its Widths registry) follows from the concretization pins, which
		// are canonical, so it must match too. The assignments' keys are
		// not compared: an assignment holds only the variables that differ
		// from baseline, so its keys move with the model.
		if len(g.Tests) > 0 && !reflect.DeepEqual(keysOf(g.Tests[0].Widths), keysOf(w.Tests[0].Widths)) {
			return fmt.Errorf("%s: state variable set diverged between solver configs", key)
		}
		for j := range g.Tests {
			gt, wt := g.Tests[j], w.Tests[j]
			// Path structure — which paths exist, in which order, with
			// which outcomes — is a pure function of budget-free
			// feasibility verdicts, so it must be identical across solver
			// configurations. The assignments are NOT compared: their
			// unpinned tail comes from whichever model the solver
			// returned, and moving models is exactly the versioned
			// freedom SerialVersion grants a solver change.
			if gt.PathIndex != wt.PathIndex || gt.Outcome != wt.Outcome || gt.Aborted != wt.Aborted {
				return fmt.Errorf("%s test %d: path structure diverged (%d/%v vs %d/%v)",
					key, j, gt.PathIndex, gt.Outcome, wt.PathIndex, wt.Outcome)
			}
		}
	}
	return nil
}
