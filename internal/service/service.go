// Package service implements the campaign service behind the pokeemud
// daemon: a long-running HTTP server (stdlib net/http only) that accepts
// cross-validation campaigns as JSON jobs, schedules them on a bounded pool
// (max concurrent jobs × workers per job), and shares one on-disk corpus
// across every job — so a warm submission dedups exploration, generation,
// and (with resume) execution against everything any tenant has already
// computed.
//
// The differential-testing pipelines this models (Icicle's fuzzing harness,
// DiffSpec's differential-test executor) run as persistent services because
// the work is embarrassingly parallel and artifact-heavy; the corpus plus
// the campaign engine's deterministic merges are what make that safe here:
// the report a job serves over HTTP is byte-identical to the same Config
// run through campaign.Run directly.
//
// Failure containment: a worker panic or per-test budget overrun is
// absorbed inside the campaign as a fault record; a panic escaping a whole
// job marks only that job failed. The daemon itself never dies with a job.
// Graceful shutdown drains running jobs for a configurable window, then
// cancels the stragglers — whose finished tests are already checkpointed in
// the corpus when resume is on, so resubmitting the same config continues
// where the canceled run stopped.
package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"pokeemu/internal/campaign"
	"pokeemu/internal/corpus"
	"pokeemu/internal/faults"
	"pokeemu/internal/triage"
)

// Submission errors surfaced as HTTP 503 by the handler layer.
var (
	ErrDraining  = errors.New("service: draining, not accepting jobs")
	ErrQueueFull = errors.New("service: job queue full")
)

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Options configure a Server.
type Options struct {
	// CorpusDir roots the corpus shared by every job. "" disables the
	// corpus: jobs run cold and cancellation checkpoints nothing.
	CorpusDir string
	// MaxJobs bounds concurrently running campaigns (default 2).
	MaxJobs int
	// MaxQueue bounds queued-but-not-started jobs; submissions beyond it
	// are rejected with ErrQueueFull (default 64).
	MaxQueue int
	// MaxWorkersPerJob caps (and defaults) the Workers a single job may
	// request (default runtime.NumCPU()).
	MaxWorkersPerJob int
	// DrainTimeout bounds how long Shutdown waits for running jobs to
	// finish before canceling them (0 = cancel immediately).
	DrainTimeout time.Duration

	// runCampaign is a test seam; nil means campaign.RunContext.
	runCampaign func(ctx context.Context, cfg campaign.Config) (*campaign.Result, error)
}

// Server is the campaign service: a job table, a bounded scheduler, and the
// HTTP API over both.
type Server struct {
	opts    Options
	metrics *Metrics
	handler http.Handler
	run     func(ctx context.Context, cfg campaign.Config) (*campaign.Result, error)

	ctx    context.Context // canceled to abort every running job
	cancel context.CancelFunc

	// crp is the shared corpus handle ("" CorpusDir leaves it nil); the
	// triage endpoint uses it to cache minimized cases across jobs.
	crp *corpus.Corpus

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	nextID   int
	queue    chan *Job
	draining bool
	// baseline is the service-wide known-divergence set: every job submitted
	// after it is set partitions its differences against it, and the triage
	// endpoint uses the snapshot the job ran with. The pointer is replaced
	// wholesale on PUT (a Baseline is immutable once installed), so running
	// jobs keep a consistent view.
	baseline *triage.Baseline

	slots sync.WaitGroup // one per scheduler slot goroutine
}

// New builds a Server and starts its scheduler slots. A configured corpus
// directory is opened (and created) up front so a bad root fails at startup
// instead of failing every job.
func New(opts Options) (*Server, error) {
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 2
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 64
	}
	if opts.MaxWorkersPerJob <= 0 {
		opts.MaxWorkersPerJob = runtime.NumCPU()
	}
	var crp *corpus.Corpus
	if opts.CorpusDir != "" {
		var err error
		if crp, err = corpus.Open(opts.CorpusDir); err != nil {
			return nil, err
		}
	}
	s := &Server{
		opts:    opts,
		metrics: newMetrics(),
		run:     opts.runCampaign,
		crp:     crp,
		jobs:    make(map[string]*Job),
		nextID:  1,
		queue:   make(chan *Job, opts.MaxQueue),
	}
	// A baseline persisted next to the corpus survives daemon restarts; a
	// missing file just means no known divergences yet.
	if p := s.baselinePath(); p != "" {
		bl, err := triage.LoadBaseline(p)
		if err != nil {
			return nil, err
		}
		s.baseline = bl
	}
	if s.run == nil {
		s.run = campaign.RunContext
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	for i := 0; i < opts.MaxJobs; i++ {
		s.slots.Add(1)
		go s.runSlot()
	}
	s.handler = s.routes()
	return s, nil
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// baselinePath is where the service persists its baseline ("" when no corpus
// is configured — the baseline is then in-memory only).
func (s *Server) baselinePath() string {
	if s.opts.CorpusDir == "" {
		return ""
	}
	return filepath.Join(s.opts.CorpusDir, "baseline.json")
}

// Baseline returns the current service-wide baseline (nil if none is set).
func (s *Server) Baseline() *triage.Baseline {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.baseline
}

// SetBaseline installs a new baseline for subsequent jobs and persists it
// next to the corpus when one is configured.
func (s *Server) SetBaseline(b *triage.Baseline) error {
	s.mu.Lock()
	s.baseline = b
	s.mu.Unlock()
	if p := s.baselinePath(); p != "" {
		return b.Save(p)
	}
	return nil
}

// Request is the JSON body of POST /v1/campaigns: the campaign spec, whose
// zero values take its defaults (workers: the server's per-job cap).
type Request = campaign.Spec

// configFor normalizes the request in place through the spec (so the job's
// status echoes the effective values), clamping both worker counts to the
// per-job cap, and roots the campaign at the shared corpus.
func (s *Server) configFor(req *Request) (campaign.Config, error) {
	req.Workers = min(req.Workers, s.opts.MaxWorkersPerJob)
	req.ExploreWorkers = min(req.ExploreWorkers, s.opts.MaxWorkersPerJob)
	cfg, err := req.Config(s.opts.MaxWorkersPerJob)
	if err != nil {
		return campaign.Config{}, err
	}
	cfg.CorpusDir = s.opts.CorpusDir
	// The job captures the baseline current at submission; a later PUT
	// replaces the server's pointer without disturbing running jobs.
	cfg.Baseline = s.Baseline()
	return cfg, nil
}

// Submit validates a request, enqueues it as a new job, and returns the
// job. ErrDraining and ErrQueueFull are capacity rejections; any other
// error is a bad request.
func (s *Server) Submit(req Request) (*Job, error) {
	cfg, err := s.configFor(&req)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.metrics.JobsRejected.Add(1)
		return nil, ErrDraining
	}
	j := &Job{
		ID:        fmt.Sprintf("job-%04d", s.nextID),
		Req:       req,
		cfg:       cfg,
		state:     StateQueued,
		submitted: time.Now(),
	}
	j.ctx, j.cancelFn = context.WithCancel(s.ctx)
	j.cfg.Progress = func(ev campaign.Event) {
		j.setProgress(ev)
		if ev.Stage == campaign.StageExecute && ev.Key != "" {
			s.metrics.TestsExecuted.Add(1)
		}
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.metrics.JobsRejected.Add(1)
		return nil, ErrQueueFull
	}
	s.nextID++
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mu.Unlock()
	s.metrics.JobsSubmitted.Add(1)
	return j, nil
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// gauges counts queued and running jobs for /metrics and /healthz.
func (s *Server) gauges() JobGauges {
	var g JobGauges
	for _, j := range s.Jobs() {
		switch j.State() {
		case StateQueued:
			g.Queued++
		case StateRunning:
			g.Running++
		}
	}
	return g
}

// runSlot is one scheduler slot: it pulls queued jobs until the queue is
// closed by Shutdown.
func (s *Server) runSlot() {
	defer s.slots.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob drives one campaign and absorbs anything it throws: an escaping
// panic fails the job, a context cancellation marks it canceled; the daemon
// outlives both.
func (s *Server) runJob(j *Job) {
	if !j.begin() {
		return // canceled while queued
	}
	s.metrics.JobsStarted.Add(1)
	defer j.cancelFn()
	var res *campaign.Result
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("job panic: %v", r)
			}
		}()
		// Injected scheduler failure, keyed by job ID: an err-mode rule
		// fails the job at its slot (overload/admission failure), a
		// panic-mode rule exercises the recover above. Either way the
		// daemon and its other jobs are untouched.
		if ferr := faults.Hit(faults.ServiceSchedule, j.ID); ferr != nil {
			err = ferr
			return
		}
		res, err = s.run(j.ctx, j.cfg)
	}()
	canceled := err != nil && j.ctx.Err() != nil
	j.finish(res, err, canceled)
	switch {
	case canceled:
		s.metrics.JobsCanceled.Add(1)
	case err != nil:
		s.metrics.JobsFailed.Add(1)
	default:
		s.metrics.JobsCompleted.Add(1)
		s.metrics.TestsReported.Add(int64(res.TotalTests))
		s.metrics.TestsPerJob.Observe(float64(res.TotalTests))
		s.metrics.recordHybrid(res)
	}
	s.metrics.JobDurationMS.Observe(float64(j.Duration()) / float64(time.Millisecond))
}

// Shutdown drains the service: submissions are rejected immediately, queued
// jobs are canceled, and running jobs get DrainTimeout to finish before
// their contexts are canceled (checkpointing via the shared corpus when the
// job requested resume). It returns once every slot is idle or ctx expires.
// Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
		for _, j := range s.jobs {
			if j.cancelQueued() {
				s.metrics.JobsCanceled.Add(1)
			}
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.slots.Wait()
		close(done)
	}()
	if s.opts.DrainTimeout > 0 {
		select {
		case <-done:
			return nil
		case <-time.After(s.opts.DrainTimeout):
		case <-ctx.Done():
		}
	}
	s.cancel()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Job is one submitted campaign and everything the API serves about it.
type Job struct {
	ID  string
	Req Request

	cfg      campaign.Config
	ctx      context.Context
	cancelFn context.CancelFunc

	mu        sync.Mutex
	state     string
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	progress  campaign.Event
	result    *campaign.Result
}

// State returns the job's current state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the campaign result of a done job (nil otherwise).
func (j *Job) Result() *campaign.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Degraded returns a done job's degradation ledger, or nil if the job has
// no result or lost nothing.
func (j *Job) Degraded() *campaign.Degraded {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil || j.result.Degraded.Empty() {
		return nil
	}
	d := j.result.Degraded
	return &d
}

// Duration is the running time (so far, for a live job).
func (j *Job) Duration() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.started.IsZero():
		return 0
	case j.finished.IsZero():
		return time.Since(j.started)
	default:
		return j.finished.Sub(j.started)
	}
}

// Cancel aborts the job: a queued job is marked canceled without running; a
// running job's context is canceled and the scheduler marks it once the
// campaign unwinds. Finished jobs are unaffected.
func (j *Job) Cancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.markCanceledLocked("canceled before start")
	case StateRunning:
		j.cancelFn()
	}
}

// cancelQueued cancels the job only if it never started; reports whether it
// did (so Shutdown can count it).
func (j *Job) cancelQueued() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.markCanceledLocked("canceled: service shutting down")
	return true
}

func (j *Job) markCanceledLocked(msg string) {
	j.state = StateCanceled
	j.errMsg = msg
	j.finished = time.Now()
	j.cancelFn()
}

// begin moves queued → running; false if the job was canceled first.
func (j *Job) begin() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

func (j *Job) setProgress(ev campaign.Event) {
	j.mu.Lock()
	j.progress = ev
	j.mu.Unlock()
}

func (j *Job) finish(res *campaign.Result, err error, canceled bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	switch {
	case canceled:
		j.state = StateCanceled
		j.errMsg = "canceled"
		if j.cfg.Resume && j.cfg.CorpusDir != "" {
			j.errMsg = "canceled (completed tests are checkpointed in the shared corpus; resubmit the same config to resume)"
		}
	case err != nil:
		j.state = StateFailed
		j.errMsg = err.Error()
	default:
		j.state = StateDone
		j.result = res
	}
}
