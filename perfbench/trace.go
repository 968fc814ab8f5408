package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"pokeemu/internal/expr"
	"pokeemu/internal/hybrid"
	"pokeemu/internal/solver"
)

// span is one timed call into a layer's public function. Spans are kept in
// memory for the whole traced run and written out once it ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Layer  string `json:"layer"`  // module name: core, symex, testgen, harness, …
	Op     string `json:"op"`     // the public function called
	Key    string `json:"key,omitempty"`

	Start time.Duration `json:"start_ns"` // offset from the tracer's epoch
	Dur   time.Duration `json:"dur_ns"`
	Alloc uint64        `json:"alloc_bytes"` // heap bytes allocated during the call

	// Deterministic work counters: solver and intern-table deltas taken
	// around the call, plus whatever the layer's result reports.
	Solver     solver.Stats  `json:"solver"`
	InternHits int64         `json:"intern_hits"`
	InternMiss int64         `json:"intern_misses"`
	Steps      int64         `json:"steps,omitempty"`
	Paths      int64         `json:"paths,omitempty"`
	TreeNodes  int64         `json:"tree_nodes,omitempty"`
	Bytes      int64         `json:"bytes,omitempty"`
	Hit        bool          `json:"hit,omitempty"`
	Fail       bool          `json:"fail,omitempty"`
	Verdict    string        `json:"verdict,omitempty"`
	Hybrid     *hybrid.Stats `json:"hybrid,omitempty"`
}

// tracer records spans. It is single-goroutine: every workload runs with
// one worker, and the benchmark calls the layers sequentially.
type tracer struct {
	epoch  time.Time
	spans  []*span
	parent int
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		parent: -1,
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocBytes() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// open starts a span; the returned func ends it. Spans opened before the
// end func runs become its children.
func (t *tracer) open(layer, op, key string) (*span, func()) {
	s := &span{ID: len(t.spans), Parent: t.parent, Layer: layer, Op: op, Key: key}
	t.spans = append(t.spans, s)
	prevParent := t.parent
	t.parent = s.ID
	s0 := solver.StatsSnapshot()
	ih0, im0, _ := expr.InternStats()
	a0 := t.allocBytes()
	start := time.Now()
	return s, func() {
		end := time.Now()
		s.Alloc = t.allocBytes() - a0
		ih1, im1, _ := expr.InternStats()
		s.InternHits, s.InternMiss = ih1-ih0, im1-im0
		s.Solver = addStats(solver.StatsSnapshot(), s0, -1)
		s.Start, s.Dur = start.Sub(t.epoch), end.Sub(start)
		t.parent = prevParent
	}
}

// call wraps f in a span and returns the span for the caller to annotate.
func (t *tracer) call(layer, op, key string, f func()) *span {
	s, end := t.open(layer, op, key)
	f()
	end()
	return s
}

// addStats returns a + sign*b, field by field.
func addStats(a, b solver.Stats, sign int64) solver.Stats {
	return solver.Stats{
		Queries:            a.Queries + sign*b.Queries,
		MemoHits:           a.MemoHits + sign*b.MemoHits,
		MemoMisses:         a.MemoMisses + sign*b.MemoMisses,
		SubsumeHits:        a.SubsumeHits + sign*b.SubsumeHits,
		ReusedLevels:       a.ReusedLevels + sign*b.ReusedLevels,
		Conflicts:          a.Conflicts + sign*b.Conflicts,
		Decisions:          a.Decisions + sign*b.Decisions,
		Propagations:       a.Propagations + sign*b.Propagations,
		Restarts:           a.Restarts + sign*b.Restarts,
		ReduceRuns:         a.ReduceRuns + sign*b.ReduceRuns,
		ReduceRemoved:      a.ReduceRemoved + sign*b.ReduceRemoved,
		PortfolioRaces:     a.PortfolioRaces + sign*b.PortfolioRaces,
		PortfolioCloneWins: a.PortfolioCloneWins + sign*b.PortfolioCloneWins,
	}
}

// under returns the spans below root (its whole subtree, root excluded).
func (t *tracer) under(root *span) []*span {
	in := map[int]bool{root.ID: true}
	var out []*span
	for _, s := range t.spans[root.ID+1:] {
		if in[s.Parent] {
			in[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part its children cover.
func (t *tracer) selfTime(s *span) time.Duration {
	d := s.Dur
	for _, c := range t.spans[s.ID+1:] {
		if c.Parent == s.ID {
			d -= c.Dur
		}
	}
	return d
}

// write dumps every span as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
