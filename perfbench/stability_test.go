package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"pokeemu/internal/campaign"
	"pokeemu/internal/corpus"
)

// smallSpec is a few-second campaign that still reaches every campaign
// layer: exploration, generation, the three emulators, comparison and the
// hybrid fuzzer with its reseed phase.
var smallSpec = campaignSpec{handlers: []string{"push_r", "leave"}, pathCap: 16, seed: 1, hybridBudget: 64}

// deterministic keeps the per-layer metrics that must repeat exactly at
// Workers=1: every count, plus the solver ratios (the memo is per solver
// instance). The intern-table ratio depends on what earlier runs in the
// process interned, and times never repeat.
func deterministic(m map[string]metric) map[string]float64 {
	out := map[string]float64{}
	for name, v := range m {
		if v.Unit == "count" || name == "solver.memo_hit_ratio" || name == "solver.subsume_ratio" {
			out[name] = v.Value
		}
	}
	return out
}

func traceCold(t *testing.T, spec campaignSpec, crp *corpus.Corpus) (*outcome, map[string]float64) {
	t.Helper()
	tr := newTracer()
	root, end := tr.open("workload", "test", "")
	res, steps, err := tracedCold(tr, spec, crp)
	end()
	if err != nil {
		t.Fatal(err)
	}
	o := campaignOutcome("test", res)
	o.steps = steps
	return o, deterministic(tracedMetrics(tr, root, o, 0))
}

func TestCountersRepeat(t *testing.T) {
	o1, c1 := traceCold(t, smallSpec, nil)
	o2, c2 := traceCold(t, smallSpec, nil)
	if !reflect.DeepEqual(c1, c2) {
		t.Errorf("per-layer counters differ between identical runs:\n%v\n%v", c1, c2)
	}
	if !maps.Equal(o1.counts, o2.counts) || !maps.Equal(o1.steps, o2.steps) || o1.digest != o2.digest {
		t.Errorf("outcomes differ: %v %v / %v %v", o1.counts, o1.steps, o2.counts, o2.steps)
	}
	for _, name := range []string{"solver.queries", "solver.propagations", "symex.paths", "testgen.built",
		"harness.fidelis_steps", "diff.compare_calls", "hybrid.edges"} {
		if c1[name] == 0 {
			t.Errorf("%s is 0: the small config no longer reaches its layer", name)
		}
	}
}

func TestEquivCountersRepeat(t *testing.T) {
	handlers := []string{"add_rm8_r8", "sete", "add_rm8_imm8_alias", "shld_cl"}
	var runs []map[string]float64
	for i := 0; i < 2; i++ {
		tr := newTracer()
		root, end := tr.open("workload", "test", "")
		rep, err := tracedEquiv(tr, handlers)
		end()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Equiv != 2 || rep.Diverges != 1 || rep.Unknown != 1 {
			t.Fatalf("verdicts %d/%d/%d, want 2 EQUIV, 1 DIVERGES, 1 UNKNOWN", rep.Equiv, rep.Diverges, rep.Unknown)
		}
		runs = append(runs, deterministic(tracedMetrics(tr, root, equivOutcome(rep), 0)))
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("equivcheck counters differ between identical runs:\n%v\n%v", runs[0], runs[1])
	}
}

// TestTracedMatchesCampaign checks the traced pipelines against
// campaign.Run: the cold one must reproduce the report and solver
// counters, the priming writes must make campaign.Run fully warm, and the
// traced warm run must read back the steps the priming run executed.
func TestTracedMatchesCampaign(t *testing.T) {
	spec := smallSpec
	spec.hybridBudget = 0
	spec.corpusDir = t.TempDir()
	crp, err := corpus.Open(spec.corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	primed, _ := traceCold(t, spec, crp)

	res, err := campaign.Run(spec.config())
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Cache; c.InstrMisses != 0 || c.ExecMisses != 0 || !c.SummaryHit {
		t.Fatalf("campaign.Run missed the traced priming's corpus: %+v", c)
	}
	if got := campaignOutcome("test", res); got.digest != primed.digest {
		t.Errorf("campaign report differs from the traced cold report:\n%s", res.Summary())
	}

	tr := newTracer()
	root, end := tr.open("workload", "test", "")
	wres, steps, err := tracedWarm(tr, spec)
	end()
	if err != nil {
		t.Fatal(err)
	}
	if campaignOutcome("test", wres).digest != primed.digest {
		t.Errorf("traced warm report differs from the cold report:\n%s", wres.Summary())
	}
	if !maps.Equal(steps, primed.steps) {
		t.Errorf("warm steps %v, priming executed %v", steps, primed.steps)
	}
	if m := layerMetrics(tr, root); m["corpus.hit_ratio"].Value != 1 || m["solver.queries"].Value != 0 {
		t.Errorf("warm run: hit ratio %v, %v solver queries", m["corpus.hit_ratio"].Value, m["solver.queries"].Value)
	}

	cold := spec
	cold.corpusDir = ""
	ref, err := campaign.Run(cold.config())
	if err != nil {
		t.Fatal(err)
	}
	tr = newTracer()
	root, end = tr.open("workload", "test", "")
	tres, _, err := tracedCold(tr, cold, nil)
	end()
	if err != nil {
		t.Fatal(err)
	}
	var st spanTotals
	for _, s := range tr.under(root) {
		st.add(s)
	}
	if tres.Summary() != ref.Summary() {
		t.Errorf("traced report differs from campaign.Run:\n%s\n%s", tres.Summary(), ref.Summary())
	}
	want := ref.Solver
	want.InternHits, want.InternMisses = 0, 0
	if got := st.campaignSolver(); got != want {
		t.Errorf("traced solver counters %+v, campaign.Run %+v", got, want)
	}
}

// TestMetricNames pins the traced run's metric set to BENCHMARK.json's
// per_layer list.
func TestMetricNames(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	root, end := tr.open("workload", "test", "")
	end()
	m := tracedMetrics(tr, root, &outcome{}, 0)
	var listed, emitted []string
	for _, l := range spec.PerLayer {
		listed = append(listed, l.Name)
		if m[l.Name].Unit != l.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q emitted", l.Name, l.Unit, m[l.Name].Unit)
		}
	}
	for name := range m {
		emitted = append(emitted, name)
	}
	sort.Strings(listed)
	sort.Strings(emitted)
	if !reflect.DeepEqual(listed, emitted) {
		t.Errorf("per_layer lists %v, the traced run emits %v", listed, emitted)
	}
}
