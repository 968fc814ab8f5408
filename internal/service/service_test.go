package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pokeemu/internal/campaign"
	"pokeemu/internal/core"
)

func startServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	})
	return s, ts
}

func doJSON(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func submitJob(t *testing.T, base, body string) Status {
	t.Helper()
	code, b := doJSON(t, http.MethodPost, base+"/v1/campaigns", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, b)
	}
	var st Status
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func pollUntil(t *testing.T, base, id string, timeout time.Duration, want ...string) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, b := doJSON(t, http.MethodGet, base+"/v1/campaigns/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("status = %d: %s", code, b)
		}
		var st Status
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		if st.State == StateFailed || st.State == StateCanceled || st.State == StateDone {
			t.Fatalf("job %s reached terminal state %q (error %q), wanted one of %v",
				id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q after %v", id, st.State, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func fetchReport(t *testing.T, base, id string) Report {
	t.Helper()
	code, b := doJSON(t, http.MethodGet, base+"/v1/campaigns/"+id+"/report", "")
	if code != http.StatusOK {
		t.Fatalf("report = %d: %s", code, b)
	}
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSubmitPollReport is the submit → poll → fetch end-to-end path: the
// HTTP-fetched report must be byte-identical to the same config run through
// campaign.Run directly, and the direct run must hit the corpus the HTTP
// job filled (the shared-artifact contract).
func TestSubmitPollReport(t *testing.T) {
	dir := t.TempDir()
	_, ts := startServer(t, Options{CorpusDir: dir, MaxJobs: 2, DrainTimeout: time.Minute})

	st := submitJob(t, ts.URL, `{"handlers":["push_r"],"path_cap":16,"resume":true}`)
	if st.ID == "" || st.State == "" {
		t.Fatalf("submit response %+v lacks id/state", st)
	}
	done := pollUntil(t, ts.URL, st.ID, 2*time.Minute, StateDone)
	if done.Progress == nil || done.Progress.Stage != campaign.StageCompare {
		t.Errorf("finished job progress = %+v, want compare stage", done.Progress)
	}
	rep := fetchReport(t, ts.URL, st.ID)

	// The CLI-equivalent direct run against the same shared corpus.
	direct, err := campaign.Run(campaign.Config{
		MaxPathsPerInstr: 16,
		Handlers:         []string{"push_r"},
		Seed:             1,
		CorpusDir:        dir,
		Resume:           true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary != direct.Summary() {
		t.Errorf("HTTP report differs from direct run:\nhttp:\n%s\ndirect:\n%s",
			rep.Summary, direct.Summary())
	}
	if rep.TotalTests != direct.TotalTests {
		t.Errorf("total tests: http %d, direct %d", rep.TotalTests, direct.TotalTests)
	}
	if direct.Cache.InstrHits != 1 || direct.Cache.ExecHits != direct.TotalTests {
		t.Errorf("direct run did not reuse the job's corpus artifacts: %+v", direct.Cache)
	}

	code, b := doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/divergences", "")
	if code != http.StatusOK {
		t.Fatalf("divergences = %d: %s", code, b)
	}
	var divs Divergences
	if err := json.Unmarshal(b, &divs); err != nil {
		t.Fatal(err)
	}
	if divs.Count != len(direct.Differences) || len(divs.Divergences) != divs.Count {
		t.Errorf("divergences count %d (len %d), direct %d",
			divs.Count, len(divs.Divergences), len(direct.Differences))
	}
}

// TestConcurrentJobsSharedCorpus is the acceptance scenario: two campaigns
// submitted concurrently over HTTP against one shared corpus both complete,
// return reports byte-identical to their CLI equivalents, and /metrics
// reflects the job counts and test totals.
func TestConcurrentJobsSharedCorpus(t *testing.T) {
	dir := t.TempDir()
	_, ts := startServer(t, Options{CorpusDir: dir, MaxJobs: 2, DrainTimeout: time.Minute})

	reqs := []struct {
		body     string
		handlers []string
	}{
		{`{"handlers":["push_r"],"path_cap":16,"resume":true}`, []string{"push_r"}},
		{`{"handlers":["add_rmv_rv"],"path_cap":16,"resume":true}`, []string{"add_rmv_rv"}},
	}
	var wg sync.WaitGroup
	ids := make([]string, len(reqs))
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			ids[i] = submitJob(t, ts.URL, body).ID
		}(i, r.body)
	}
	wg.Wait()

	totalTests := 0
	for i, r := range reqs {
		pollUntil(t, ts.URL, ids[i], 2*time.Minute, StateDone)
		rep := fetchReport(t, ts.URL, ids[i])
		direct, err := campaign.Run(campaign.Config{
			MaxPathsPerInstr: 16,
			Handlers:         r.handlers,
			Seed:             1,
			CorpusDir:        dir,
			Resume:           true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Summary != direct.Summary() {
			t.Errorf("job %s report differs from its CLI equivalent", ids[i])
		}
		totalTests += rep.TotalTests
	}

	code, b := doJSON(t, http.MethodGet, ts.URL+"/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	var m MetricsSnapshot
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m.Jobs.Submitted != 2 || m.Jobs.Completed != 2 {
		t.Errorf("metrics jobs = %+v, want 2 submitted / 2 completed", m.Jobs)
	}
	if m.Tests.Reported != int64(totalTests) || m.Tests.Executed == 0 {
		t.Errorf("metrics tests = %+v, want reported=%d, executed>0", m.Tests, totalTests)
	}
	if m.JobDurationMS.Count != 2 {
		t.Errorf("job duration histogram count = %d, want 2", m.JobDurationMS.Count)
	}
}

// stubResult is a minimal but renderable campaign result for scheduler
// tests that don't need the real pipeline.
func stubResult(tests int) *campaign.Result {
	return &campaign.Result{
		InstrSet:   &core.InstrSetResult{},
		TotalTests: tests,
		RootCauses: map[string]int{},
	}
}

// TestGracefulShutdownDrains: Shutdown with a generous drain window lets an
// in-flight job finish, and the drained service refuses new submissions.
func TestGracefulShutdownDrains(t *testing.T) {
	started := make(chan struct{})
	s, err := New(Options{
		MaxJobs:      1,
		DrainTimeout: time.Minute,
		runCampaign: func(ctx context.Context, cfg campaign.Config) (*campaign.Result, error) {
			close(started)
			time.Sleep(200 * time.Millisecond) // deliberately ignores ctx: must be drained, not killed
			return stubResult(7), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := submitJob(t, ts.URL, `{}`)
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	j, _ := s.Job(st.ID)
	if got := j.State(); got != StateDone {
		t.Errorf("drained job state = %q, want done", got)
	}
	if code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/campaigns", `{}`); code != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown = %d (%s), want 503", code, body)
	}
	if s.Metrics().JobsCompleted.Load() != 1 {
		t.Error("drained job not counted as completed")
	}
}

// TestShutdownCancelsStuckJob: when the drain window expires, Shutdown
// cancels the running job's context and returns; the job is marked canceled
// with the checkpoint hint, queued jobs never run, and the daemon exits
// cleanly either way.
func TestShutdownCancelsStuckJob(t *testing.T) {
	started := make(chan struct{})
	s, err := New(Options{
		CorpusDir:    t.TempDir(),
		MaxJobs:      1,
		DrainTimeout: 50 * time.Millisecond,
		runCampaign: func(ctx context.Context, cfg campaign.Config) (*campaign.Result, error) {
			select {
			case <-started:
			default:
				close(started)
			}
			<-ctx.Done() // a job that only stops when canceled
			return nil, fmt.Errorf("campaign: canceled: %w", ctx.Err())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	running := submitJob(t, ts.URL, `{"resume":true}`)
	<-started
	queued := submitJob(t, ts.URL, `{"resume":true}`)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	j, _ := s.Job(running.ID)
	if got := j.State(); got != StateCanceled {
		t.Errorf("stuck job state = %q, want canceled", got)
	}
	if st := j.status(); !strings.Contains(st.Error, "checkpointed") {
		t.Errorf("canceled resume job error %q lacks the checkpoint hint", st.Error)
	}
	q, _ := s.Job(queued.ID)
	if got := q.State(); got != StateCanceled {
		t.Errorf("queued job state = %q, want canceled", got)
	}
	if n := s.Metrics().JobsCanceled.Load(); n != 2 {
		t.Errorf("canceled metric = %d, want 2", n)
	}
}

// TestJobPanicDoesNotKillDaemon: a panic escaping a whole job fails that
// job only; the daemon keeps serving and completes the next job.
func TestJobPanicDoesNotKillDaemon(t *testing.T) {
	s, err := New(Options{
		MaxJobs:      1,
		DrainTimeout: time.Minute,
		runCampaign: func(ctx context.Context, cfg campaign.Config) (*campaign.Result, error) {
			if len(cfg.Handlers) > 0 && cfg.Handlers[0] == "boom" {
				panic("injected job crash")
			}
			return stubResult(3), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	bad := submitJob(t, ts.URL, `{"handlers":["boom"]}`)
	deadline := time.Now().Add(time.Minute)
	var st Status
	for {
		_, b := doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/"+bad.ID, "")
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("crashing job stuck in %q", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(st.Error, "injected job crash") {
		t.Errorf("failed job error %q does not carry the panic", st.Error)
	}

	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz after job panic = %d", code)
	}
	good := submitJob(t, ts.URL, `{}`)
	pollUntil(t, ts.URL, good.ID, time.Minute, StateDone)
	if f, c := s.Metrics().JobsFailed.Load(), s.Metrics().JobsCompleted.Load(); f != 1 || c != 1 {
		t.Errorf("metrics failed/completed = %d/%d, want 1/1", f, c)
	}
}

// TestSubmitRejectsRemovedFields: the solver and celer tuning fields and
// the separate hybrid worker count are gone from the request schema, and strict decoding turns a request that
// still sends one into a 400 naming the unknown field rather than a
// silently different campaign.
func TestSubmitRejectsRemovedFields(t *testing.T) {
	_, ts := startServer(t, Options{
		runCampaign: func(context.Context, campaign.Config) (*campaign.Result, error) {
			t.Error("a rejected request started a campaign")
			return stubResult(1), nil
		},
	})
	for _, body := range []string{
		`{"handlers":["push_r"],"portfolio":2}`,
		`{"handlers":["push_r"],"no_solver_batch":true}`,
		`{"handlers":["push_r"],"no_fastpath":true}`,
		`{"handlers":["push_r"],"no_subsume":true}`,
		`{"handlers":["push_r"],"no_reduce_db":true}`,
		`{"handlers":["push_r"],"hybrid_workers":2}`,
	} {
		code, b := doJSON(t, http.MethodPost, ts.URL+"/v1/campaigns", body)
		if code != http.StatusBadRequest || !bytes.Contains(b, []byte("unknown field")) {
			t.Errorf("submit(%s) = %d (%s), want 400 with unknown field", body, code, b)
		}
	}
}

// TestSubmitValidationAndBackpressure: malformed and negative configs are
// 400s; a full queue and a canceled queued job behave as documented.
func TestSubmitValidationAndBackpressure(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var releaseOnce sync.Once
	s, err := New(Options{
		MaxJobs:      1,
		MaxQueue:     1,
		DrainTimeout: time.Minute,
		runCampaign: func(ctx context.Context, cfg campaign.Config) (*campaign.Result, error) {
			select {
			case <-started:
			default:
				close(started)
			}
			select {
			case <-release:
			case <-ctx.Done():
			}
			return stubResult(1), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	t.Cleanup(func() {
		releaseOnce.Do(func() { close(release) })
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	for _, body := range []string{
		`{"path_cap":-1}`,
		`{"workers":-2}`,
		`{"test_timeout_ms":-5}`,
		`{"max_instrs":-1}`,
		`{"unknown_field":1}`,
		`not json`,
	} {
		if code, b := doJSON(t, http.MethodPost, ts.URL+"/v1/campaigns", body); code != http.StatusBadRequest {
			t.Errorf("submit(%s) = %d (%s), want 400", body, code, b)
		}
	}

	first := submitJob(t, ts.URL, `{}`) // occupies the single slot
	<-started
	queued := submitJob(t, ts.URL, `{}`) // sits in the queue
	if code, b := doJSON(t, http.MethodPost, ts.URL+"/v1/campaigns", `{}`); code != http.StatusServiceUnavailable {
		t.Errorf("submit over full queue = %d (%s), want 503", code, b)
	}
	if s.Metrics().JobsRejected.Load() == 0 {
		t.Error("rejected submission not counted")
	}

	// Cancel the queued job; it must never run.
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/campaigns/"+queued.ID, ""); code != http.StatusAccepted {
		t.Errorf("cancel = %d, want 202", code)
	}
	releaseOnce.Do(func() { close(release) })
	pollUntil(t, ts.URL, first.ID, time.Minute, StateDone)
	q, _ := s.Job(queued.ID)
	if got := q.State(); got != StateCanceled {
		t.Errorf("canceled queued job state = %q", got)
	}

	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/nope", ""); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", code)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/"+queued.ID+"/report", ""); code != http.StatusConflict {
		t.Errorf("report of unfinished job = %d, want 409", code)
	}

	code, b := doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns", "")
	if code != http.StatusOK || !bytes.Contains(b, []byte(first.ID)) || !bytes.Contains(b, []byte(queued.ID)) {
		t.Errorf("list = %d (%s), want both jobs", code, b)
	}
}
