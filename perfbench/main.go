// Command perfbench is the repository benchmark: four workloads that
// together cover every pipeline layer, measured end to end with tracing
// off and, in a separate traced run, layer by layer. See NOTES.md.
//
//	perfbench --workload mix-cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"pokeemu/internal/campaign"
)

// stateDir holds everything the benchmark writes, relative to the
// directory it runs in: scratch corpora, spans and per-seed expectations.
const stateDir = ".bench_build"

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// One P: on a small shared host, a second P running the concurrent GC
	// made wall time swing with whatever else used the second CPU, and
	// cost more CPU than it saved. It also matches the single-CPU
	// reference of bench_baseline.txt.
	runtime.GOMAXPROCS(1)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: mix-cold, mix-warm, equiv-proof or hybrid-fuzz")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "minimum measured time; whole workload runs repeat until it is reached")
	trace := fs.Int("trace", 0, "1 = one traced run reporting per-layer metrics")
	primeDir := fs.String("prime", "", "prime a mix-warm corpus in this directory and exit (used by set-up)")
	isChild := fs.Bool("child", false, "run the workload once untraced and print its outcome (used by the parent)")
	corpusDir := fs.String("corpus", "", "primed corpus for --child on mix-warm")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *primeDir != "" {
		if err := prime(*primeDir, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: prime:", err)
			return 1
		}
		return 0
	}
	w := workloadByName(*name)
	if w == nil || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --trace %d\n", *name, *trace)
		return 2
	}
	work := filepath.Join(stateDir, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(work)
	if *isChild {
		if err := child(w, *seed, *corpusDir, work); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: child:", err)
			return 1
		}
		return 0
	}
	var res *result
	var err error
	if *trace == 1 {
		res, err = measureTraced(w, *seed, work)
	} else {
		res, err = measure(w, *seed, *seconds, work)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// tally accumulates unit accounting over a run's workload executions.
type tally struct {
	attempted, failed int
	correct           bool
}

// account checks one outcome and counts its units; a run whose output
// check fails counts every one of its units as failed.
func (t *tally) account(w *workload, o *outcome, seed int64) {
	problems := append(o.problems, checkExpected(o, seed)...)
	t.attempted += o.attempted
	if len(problems) == 0 {
		t.failed += min(o.failed, o.attempted)
		return
	}
	t.failed += o.attempted
	t.correct = false
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %s\n", w.name, seed, p)
	}
}

func (t *tally) okRatio() float64 {
	return 1 - float64(t.failed)/float64(max(t.attempted, 1))
}

// measure is the untraced run: set-up repeated w.setupReps times, then
// whole workload runs, each in its own child process, until the measured
// time reaches seconds. Each run's wall time, CPU time and peak RSS are
// its child's own; the metrics are their medians.
func measure(w *workload, seed int64, seconds float64, work string) (*result, error) {
	var in *inputs
	var setups []float64
	for i := 0; i < w.setupReps; i++ {
		dir := filepath.Join(work, fmt.Sprintf("setup%d", i))
		runtime.GC()
		t0 := time.Now()
		next, err := w.setup(seed, dir, nil)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, err
		}
		if i > 0 {
			os.RemoveAll(filepath.Join(work, fmt.Sprintf("setup%d", i-1)))
		}
		in = next
	}

	tl := tally{correct: true}
	var walls, cpus, rss []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds() < seconds {
		r, err := runChild(w, seed, in)
		if err != nil {
			return nil, err
		}
		walls = append(walls, r.Wall.Seconds())
		cpus = append(cpus, r.CPU.Seconds())
		rss = append(rss, r.PeakRSSMB)
		tl.account(w, r.outcome(), seed)
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d run %d: wall %.3fs cpu %.3fs peak rss %.1f MB\n",
			w.name, seed, len(walls), r.Wall.Seconds(), r.CPU.Seconds(), r.PeakRSSMB)
	}
	return &result{
		Correct: tl.correct, Attempted: tl.attempted, Failed: tl.failed,
		Metrics: map[string]metric{
			"wall_s":      {median(walls), "s"},
			"cpu_s":       {median(cpus), "s"},
			"setup_s":     {median(setups), "s"},
			"peak_rss_mb": {median(rss), "MB"},
			"ok_ratio":    {tl.okRatio(), "ratio"},
		},
	}, nil
}

// measureTraced is the traced run: set-up once, one untraced reference
// run in a child process, then one traced run whose spans give the
// per-layer metrics. The traced run must reproduce the reference run's
// deterministic output.
func measureTraced(w *workload, seed int64, work string) (*result, error) {
	t := newTracer()
	in, err := w.setup(seed, filepath.Join(work, "setup0"), t)
	if err != nil {
		return nil, err
	}
	tl := tally{correct: true}

	ref, err := runChild(w, seed, in)
	if err != nil {
		return nil, err
	}
	refWall := ref.Wall
	tl.account(w, ref.outcome(), seed)

	runtime.GC()
	root, end := t.open("workload", w.name, "")
	o, err := w.traced(in, t)
	end()
	if err != nil {
		return nil, err
	}
	o.problems = append(o.problems, crossCheck(ref.outcome(), o, t, root)...)
	tl.account(w, o, seed)

	m := tracedMetrics(t, root, o, refWall)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: untraced wall %.3fs, traced wall %.3fs, tracing overhead %.3fs, %d spans\n",
		w.name, seed, refWall.Seconds(), root.Dur.Seconds(), (root.Dur - refWall).Seconds(), len(t.spans))
	if err := t.write(filepath.Join(stateDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))); err != nil {
		return nil, err
	}
	return &result{Correct: tl.correct, Attempted: tl.attempted, Failed: tl.failed, Metrics: m}, nil
}

// crossCheck compares the traced run's deterministic output with the
// untraced reference: report digest, counts, and the solver counters the
// campaign result carries.
func crossCheck(ref, o *outcome, t *tracer, root *span) []string {
	var problems []string
	if o.digest != ref.digest {
		problems = append(problems, "traced report differs from the untraced report")
	}
	if !maps.Equal(o.counts, ref.counts) {
		problems = append(problems, fmt.Sprintf("traced counts %v differ from untraced %v", o.counts, ref.counts))
	}
	if ref.solver != nil {
		var st spanTotals
		for _, s := range t.under(root) {
			st.add(s)
		}
		if got := st.campaignSolver(); got != *ref.solver {
			problems = append(problems, fmt.Sprintf("traced solver counters %+v differ from untraced %+v", got, *ref.solver))
		}
	}
	return problems
}

// childRun is one untraced workload run in a child process, as the child
// reports it to its parent.
type childRun struct {
	Wall      time.Duration         `json:"wall_ns"`
	CPU       time.Duration         `json:"cpu_ns"`
	PeakRSSMB float64               `json:"peak_rss_mb"`
	Family    string                `json:"family"`
	Digest    string                `json:"digest"`
	Counts    map[string]int64      `json:"counts"`
	Solver    *campaign.SolverStats `json:"solver"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Problems  []string              `json:"problems"`
}

func (r *childRun) outcome() *outcome {
	return &outcome{family: r.Family, digest: r.Digest, counts: r.Counts, solver: r.Solver,
		attempted: r.Attempted, failed: r.Failed, problems: r.Problems}
}

// runChild runs the workload once, untraced, in a child process. Every
// run gets a fresh process because the expression intern table and other
// process-wide caches stay warm after a run: a second run in one process
// is faster than a cold one.
func runChild(w *workload, seed int64, in *inputs) (*childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--child", "--workload", w.name,
		"--seed", strconv.FormatInt(seed, 10), "--corpus", in.spec.corpusDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("workload run: %w", err)
	}
	var r childRun
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("workload run output: %w", err)
	}
	return &r, nil
}

// child is the child half of runChild: it builds the inputs untimed
// (reusing the parent's primed corpus for mix-warm) and runs once.
func child(w *workload, seed int64, corpusDir, work string) error {
	var in *inputs
	var err error
	if corpusDir != "" {
		in, err = campaignInputs(seed, campaignSpec{handlers: mixHandlers, pathCap: mixPathCap})
		if in != nil {
			in.spec.corpusDir = corpusDir
		}
	} else {
		in, err = w.setup(seed, work, nil)
	}
	if err != nil {
		return err
	}
	runtime.GC()
	c0 := cpuTime()
	t0 := time.Now()
	o, err := w.run(in)
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	if err != nil {
		return err
	}
	if o.res != nil {
		fmt.Fprintf(os.Stderr, "perfbench: campaign timing table:\n%s", o.res.TimingTable())
	}
	return json.NewEncoder(os.Stdout).Encode(&childRun{
		Wall: wall, CPU: cpu, PeakRSSMB: peakRSSMB(),
		Family: o.family, Digest: o.digest, Counts: o.counts, Solver: o.solver,
		Attempted: o.attempted, Failed: o.failed, Problems: o.problems,
	})
}

// cpuTime is this process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is this process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
