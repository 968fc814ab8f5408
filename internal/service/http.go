package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"pokeemu/internal/campaign"
	"pokeemu/internal/diff"
	"pokeemu/internal/triage"
)

// Status is the JSON shape of GET /v1/campaigns/{id} (and of each element
// of the list endpoint): job identity, lifecycle timestamps, live progress,
// and the effective (normalized) config.
type Status struct {
	ID          string        `json:"id"`
	State       string        `json:"state"`
	Config      Request       `json:"config"`
	SubmittedAt string        `json:"submitted_at"`
	StartedAt   string        `json:"started_at,omitempty"`
	FinishedAt  string        `json:"finished_at,omitempty"`
	DurationMS  int64         `json:"duration_ms"`
	Progress    *ProgressInfo `json:"progress,omitempty"`
	Error       string        `json:"error,omitempty"`
}

// ProgressInfo is the latest progress event of a job.
type ProgressInfo struct {
	Stage string `json:"stage"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// Report is the JSON shape of GET /v1/campaigns/{id}/report. Summary is the
// deterministic campaign report — byte-identical to Result.Summary() for
// the same config run via campaign.Run directly; Timing is the
// run-dependent wall-clock/cache table.
type Report struct {
	ID            string         `json:"id"`
	Summary       string         `json:"summary"`
	Timing        string         `json:"timing"`
	TotalTests    int            `json:"total_tests"`
	TotalPaths    int            `json:"total_paths"`
	LoFiDiffTests int            `json:"lofi_diff_tests"`
	HiFiDiffTests int            `json:"hifi_diff_tests"`
	InstrFaults   int            `json:"instr_faults"`
	ExecFaults    int            `json:"exec_faults"`
	ExecTimeouts  int            `json:"exec_timeouts"`
	RootCauses    map[string]int `json:"root_causes,omitempty"`
	Cache         CacheInfo      `json:"cache"`
	// Degraded is the campaign's graceful-degradation ledger: present only
	// when the run lost units or cache entries, so healthy reports are
	// byte-identical to the pre-degradation format.
	Degraded *DegradedInfo `json:"degraded,omitempty"`
	// Baseline is the known/new partition, present only when the job ran
	// against a baseline — baseline-free reports keep their historical bytes.
	Baseline *BaselineInfo `json:"baseline,omitempty"`
	// Hybrid summarizes the coverage-guided fuzzing stage, present only
	// when the job requested a hybrid budget.
	Hybrid *HybridInfo `json:"hybrid,omitempty"`
	// Vote summarizes the N-way voted verdicts, present only when the job
	// requested voting — vote-free reports keep their historical bytes.
	Vote *VoteInfo `json:"vote,omitempty"`
}

// VoteInfo summarizes a job's N-way voted verdicts: per-test equivalence
// classes over the three emulators, with per-emulator blame counts.
type VoteInfo struct {
	Agree    int            `json:"agree"`
	Majority int            `json:"majority"`
	Splits   int            `json:"splits"`
	Blame    map[string]int `json:"blame,omitempty"`
}

// HybridInfo summarizes a job's hybrid fuzzing stage.
type HybridInfo struct {
	Execs          int  `json:"execs"`
	Skipped        int  `json:"skipped,omitempty"`
	Deduped        int  `json:"deduped"`
	NewCoverage    int  `json:"new_coverage"`
	Divergent      int  `json:"divergent"`
	Promising      int  `json:"promising"`
	Reseeds        int  `json:"reseeds"`
	ReseedTests    int  `json:"reseed_tests"`
	Signatures     int  `json:"signatures"`
	SeedSignatures int  `json:"seed_signatures"`
	Edges          int  `json:"edges"`
	Cached         bool `json:"cached,omitempty"` // stage served from the corpus
}

// BaselineInfo summarizes a job's baseline partition.
type BaselineInfo struct {
	Entries int `json:"entries"` // suppressed clusters in the baseline
	Known   int `json:"known"`   // divergent tests matching a baseline entry
	New     int `json:"new"`     // divergent tests not in the baseline
}

// DegradedInfo mirrors campaign.Degraded with stable JSON names.
type DegradedInfo struct {
	Units        int            `json:"units"`
	Instrs       int            `json:"instrs"`
	Execs        int            `json:"execs"`
	CorpusWrites int            `json:"corpus_writes"`
	CorpusReads  int            `json:"corpus_reads"`
	HybridExecs  int            `json:"hybrid_execs,omitempty"`
	Reasons      map[string]int `json:"reasons,omitempty"`
}

// CacheInfo mirrors campaign.CacheStats with stable JSON names.
type CacheInfo struct {
	Enabled        bool `json:"enabled"`
	SummaryHit     bool `json:"summary_hit"`
	InstrHits      int  `json:"instr_hits"`
	InstrMisses    int  `json:"instr_misses"`
	TestsCached    int  `json:"tests_cached"`
	TestsGenerated int  `json:"tests_generated"`
	ExecHits       int  `json:"exec_hits"`
	ExecMisses     int  `json:"exec_misses"`
	// I/O resilience counters, omitted when zero so healthy-run reports
	// keep their pre-degradation bytes.
	ExecDecodeFailed int   `json:"exec_decode_failed,omitempty"`
	ReadRetries      int64 `json:"read_retries,omitempty"`
	WriteRetries     int64 `json:"write_retries,omitempty"`
	ReadFailures     int64 `json:"read_failures,omitempty"`
	WriteFailures    int64 `json:"write_failures,omitempty"`
}

// Divergences is the JSON shape of GET /v1/campaigns/{id}/divergences.
type Divergences struct {
	ID          string       `json:"id"`
	Count       int          `json:"count"`
	Divergences []Divergence `json:"divergences"`
}

// Divergence is one behavioral difference, with its root-cause class.
type Divergence struct {
	TestID    string            `json:"test_id"`
	Handler   string            `json:"handler"`
	Mnemonic  string            `json:"mnemonic"`
	ImplA     string            `json:"impl_a"`
	ImplB     string            `json:"impl_b"`
	RootCause string            `json:"root_cause"`
	Fields    []DivergenceField `json:"fields"`
}

// DivergenceField is one differing machine-state field (values in hex).
type DivergenceField struct {
	Field string `json:"field"`
	A     string `json:"a"`
	B     string `json:"b"`
}

// ListResponse is the JSON shape of GET /v1/campaigns.
type ListResponse struct {
	Jobs []Status `json:"jobs"`
}

// Health is the JSON shape of GET /healthz. Status is "ok" until a job
// fails or finishes degraded, then "degraded" with the detail populated —
// the HTTP code stays 200 (the daemon itself is alive; liveness probes
// must not restart it over a lost unit).
type Health struct {
	Status   string          `json:"status"`
	Draining bool            `json:"draining"`
	Corpus   string          `json:"corpus,omitempty"`
	Jobs     JobGauges       `json:"jobs"`
	Degraded *DegradedHealth `json:"degraded,omitempty"`
}

// DegradedHealth details why Health.Status is "degraded".
type DegradedHealth struct {
	JobsFailed    int `json:"jobs_failed"`    // jobs that died (panic, scheduler fault, hard error)
	JobsDegraded  int `json:"jobs_degraded"`  // done jobs whose campaigns lost units
	DegradedUnits int `json:"degraded_units"` // total units lost across those jobs
}

// routes wires the API. Every handler is wrapped with per-route request
// counting and latency observation.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.instrument("submit", s.handleSubmit))
	mux.HandleFunc("GET /v1/campaigns", s.instrument("list", s.handleList))
	mux.HandleFunc("GET /v1/campaigns/{id}", s.instrument("status", s.handleStatus))
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.instrument("cancel", s.handleCancel))
	mux.HandleFunc("GET /v1/campaigns/{id}/report", s.instrument("report", s.handleReport))
	mux.HandleFunc("GET /v1/campaigns/{id}/divergences", s.instrument("divergences", s.handleDivergences))
	mux.HandleFunc("GET /v1/campaigns/{id}/triage", s.instrument("triage", s.handleTriage))
	mux.HandleFunc("GET /v1/equivcheck", s.instrument("equivcheck", s.handleEquivcheck))
	mux.HandleFunc("GET /v1/baseline", s.instrument("baseline", s.handleBaselineGet))
	mux.HandleFunc("PUT /v1/baseline", s.instrument("baseline", s.handleBaselinePut))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	return mux
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.metrics.observeHTTP(route, sw.code, time.Since(t0))
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// maxBodyBytes caps every request body the daemon reads.
const maxBodyBytes = 1 << 20

// decodeSubmit reads a submit body: one Request of at most maxBodyBytes,
// with no field the schema lacks. w, when non-nil, is told to close the
// connection once the body runs over the cap.
func decodeSubmit(w http.ResponseWriter, body io.ReadCloser) (Request, error) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeSubmit(w, r.Body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad request: "+err.Error())
		return
	}
	j, err := s.Submit(req)
	if err != nil {
		if errors.Is(err, ErrDraining) || errors.Is(err, ErrQueueFull) {
			writeErr(w, http.StatusServiceUnavailable, err.Error())
		} else {
			writeErr(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	w.Header().Set("Location", "/v1/campaigns/"+j.ID)
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	resp := ListResponse{Jobs: []Status{}}
	for _, j := range s.Jobs() {
		resp.Jobs = append(resp.Jobs, j.status())
	}
	writeJSON(w, http.StatusOK, resp)
}

// lookup resolves {id} or writes a 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("no such job %q", id))
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusAccepted, j.status())
}

// finishedResult gates the result endpoints: only done jobs have one.
func finishedResult(w http.ResponseWriter, j *Job) (*campaign.Result, bool) {
	res := j.Result()
	if res == nil {
		writeErr(w, http.StatusConflict,
			fmt.Sprintf("job %s is %s; results are available once it is done", j.ID, j.State()))
		return nil, false
	}
	return res, true
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	res, ok := finishedResult(w, j)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, Report{
		ID:            j.ID,
		Summary:       res.Summary(),
		Timing:        res.TimingTable(),
		TotalTests:    res.TotalTests,
		TotalPaths:    res.TotalPaths,
		LoFiDiffTests: res.LoFiDiffTests,
		HiFiDiffTests: res.HiFiDiffTests,
		InstrFaults:   res.InstrFaults,
		ExecFaults:    res.ExecFaults,
		ExecTimeouts:  res.ExecTimeouts,
		RootCauses:    res.RootCauses,
		Cache: CacheInfo{
			Enabled:          res.Cache.Enabled,
			SummaryHit:       res.Cache.SummaryHit,
			InstrHits:        res.Cache.InstrHits,
			InstrMisses:      res.Cache.InstrMisses,
			TestsCached:      res.Cache.TestsCached,
			TestsGenerated:   res.Cache.TestsGenerated,
			ExecHits:         res.Cache.ExecHits,
			ExecMisses:       res.Cache.ExecMisses,
			ExecDecodeFailed: res.Cache.ExecDecodeFailed,
			ReadRetries:      res.Cache.ReadRetries,
			WriteRetries:     res.Cache.WriteRetries,
			ReadFailures:     res.Cache.ReadFailures,
			WriteFailures:    res.Cache.WriteFailures,
		},
		Degraded: degradedInfo(&res.Degraded),
		Baseline: baselineInfo(res),
		Hybrid:   hybridInfo(res),
		Vote:     voteInfo(res),
	})
}

// voteInfo converts the result's voted verdicts for the API; nil (omitted
// from the JSON) when the job ran without voting.
func voteInfo(res *campaign.Result) *VoteInfo {
	if !res.VoteUsed {
		return nil
	}
	return &VoteInfo{
		Agree: res.VoteAgree, Majority: res.VoteMajority, Splits: res.VoteSplits,
		Blame: res.VoteBlame,
	}
}

// hybridInfo converts the result's hybrid stage for the API; nil (omitted
// from the JSON) when the job ran without a hybrid budget.
func hybridInfo(res *campaign.Result) *HybridInfo {
	if !res.HybridUsed {
		return nil
	}
	st := res.HybridStats
	return &HybridInfo{
		Execs: st.Execs, Skipped: st.Skipped, Deduped: st.Deduped,
		NewCoverage: st.NewCoverage, Divergent: st.Divergent, Promising: st.Promising,
		Reseeds: st.Reseeds, ReseedTests: st.ReseedTests,
		Signatures: st.Signatures, SeedSignatures: st.SeedSignatures, Edges: st.Edges,
		Cached: res.Cache.FuzzHit,
	}
}

// baselineInfo converts the result's baseline partition for the API; nil
// (omitted from the JSON) when the job ran without a baseline.
func baselineInfo(res *campaign.Result) *BaselineInfo {
	if !res.BaselineUsed {
		return nil
	}
	return &BaselineInfo{Entries: res.BaselineEntries, Known: res.KnownDiffs, New: res.NewDiffs}
}

// degradedInfo converts the campaign ledger for the API; nil (omitted from
// the JSON) when the run lost nothing.
func degradedInfo(d *campaign.Degraded) *DegradedInfo {
	if d.Empty() {
		return nil
	}
	return &DegradedInfo{
		Units:        d.Total(),
		Instrs:       d.Instrs,
		Execs:        d.Execs,
		CorpusWrites: d.CorpusWrites,
		CorpusReads:  d.CorpusReads,
		HybridExecs:  d.HybridExecs,
		Reasons:      d.Reasons,
	}
}

func (s *Server) handleDivergences(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	res, ok := finishedResult(w, j)
	if !ok {
		return
	}
	resp := Divergences{ID: j.ID, Count: len(res.Differences), Divergences: []Divergence{}}
	for _, d := range res.Differences {
		dv := Divergence{
			TestID:    d.TestID,
			Handler:   d.Handler,
			Mnemonic:  d.Mnemonic,
			ImplA:     d.ImplA,
			ImplB:     d.ImplB,
			RootCause: diff.RootCause(d),
		}
		for _, f := range d.Fields {
			dv.Fields = append(dv.Fields, DivergenceField{
				Field: f.Field,
				A:     fmt.Sprintf("%#x", f.A),
				B:     fmt.Sprintf("%#x", f.B),
			})
		}
		resp.Divergences = append(resp.Divergences, dv)
	}
	writeJSON(w, http.StatusOK, resp)
}

// TriageResponse is the JSON shape of GET /v1/campaigns/{id}/triage: the
// full triage report, its human rendering, and the baseline that would
// suppress every cluster seen — ready to PUT back to /v1/baseline.
type TriageResponse struct {
	ID                string           `json:"id"`
	Rendered          string           `json:"rendered"`
	Report            *triage.Report   `json:"report"`
	SuggestedBaseline *triage.Baseline `json:"suggested_baseline"`
}

// handleTriage triages a done job's divergences on demand. Query parameters:
// minimize=1 ddmin-shrinks every case (cached in the shared corpus, so
// repeat requests replay instead of re-running oracles); budget=N bounds
// oracle runs per case. The partition uses the baseline the job ran with, so
// the triage report always agrees with the job's campaign summary.
func (s *Server) handleTriage(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	res, ok := finishedResult(w, j)
	if !ok {
		return
	}
	opts := triage.Options{
		TestMaxSteps: j.Req.TestMaxSteps,
		Workers:      j.Req.Workers,
		Baseline:     j.cfg.Baseline,
		Corpus:       s.crp,
	}
	q := r.URL.Query()
	opts.Minimize = q.Get("minimize") == "1" || q.Get("minimize") == "true"
	if v := q.Get("budget"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad budget %q", v))
			return
		}
		opts.Budget = n
	}
	rep, err := triage.Run(res.TriageCases, opts)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, TriageResponse{
		ID:                j.ID,
		Rendered:          rep.Render(),
		Report:            rep,
		SuggestedBaseline: rep.SuggestedBaseline(),
	})
}

// handleBaselineGet serves the service-wide baseline (an empty one when none
// has been recorded, so clients can always fetch-modify-PUT).
func (s *Server) handleBaselineGet(w http.ResponseWriter, r *http.Request) {
	bl := s.Baseline()
	if bl == nil {
		bl = triage.NewBaseline()
	}
	writeJSON(w, http.StatusOK, bl)
}

// handleBaselinePut replaces the service-wide baseline. The body is the
// versioned baseline format (as served by GET /v1/baseline or suggested by
// the triage endpoint); jobs submitted afterwards partition against it.
func (s *Server) handleBaselinePut(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad request: "+err.Error())
		return
	}
	bl, err := triage.DecodeBaseline(data)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := s.SetBaseline(bl); err != nil {
		writeErr(w, http.StatusInternalServerError, "persisting baseline: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, bl)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	h := Health{
		Status:   "ok",
		Draining: draining,
		Corpus:   s.opts.CorpusDir,
		Jobs:     s.gauges(),
	}
	var dh DegradedHealth
	for _, j := range s.Jobs() {
		if j.State() == StateFailed {
			dh.JobsFailed++
		}
		if d := j.Degraded(); d != nil {
			dh.JobsDegraded++
			dh.DegradedUnits += d.Total()
		}
	}
	if dh.JobsFailed > 0 || dh.JobsDegraded > 0 {
		h.Status = "degraded"
		h.Degraded = &dh
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.Snapshot(s.gauges()))
}

// status snapshots a job for the API.
func (j *Job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.ID,
		State:       j.state,
		Config:      j.Req,
		SubmittedAt: j.submitted.UTC().Format(time.RFC3339Nano),
		Error:       j.errMsg,
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.DurationMS = end.Sub(j.started).Milliseconds()
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if j.progress.Stage != "" {
		st.Progress = &ProgressInfo{Stage: j.progress.Stage, Done: j.progress.Done, Total: j.progress.Total}
	}
	return st
}
