package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"pokeemu/internal/triage"
)

// TestTriageBaselineE2E drives the regression-gate workflow over the HTTP
// API end to end: run a campaign, fetch its minimized triage report, record
// the suggested baseline via PUT /v1/baseline, resubmit the same campaign,
// and require the second job to report zero new divergences — in its
// campaign summary, its report JSON, and its triage report.
func TestTriageBaselineE2E(t *testing.T) {
	dir := t.TempDir()
	_, ts := startServer(t, Options{CorpusDir: dir, MaxJobs: 1, DrainTimeout: time.Minute})
	body := `{"handlers":["leave"],"path_cap":8}`

	st := submitJob(t, ts.URL, body)
	pollUntil(t, ts.URL, st.ID, 2*time.Minute, StateDone)

	// Baseline-free job: no partition in the report.
	rep := fetchReport(t, ts.URL, st.ID)
	if rep.Baseline != nil {
		t.Fatalf("baseline-free job has a partition: %+v", rep.Baseline)
	}
	if rep.LoFiDiffTests == 0 {
		t.Fatal("seeded campaign produced no divergences")
	}

	// Minimized triage report: everything is new, every case reproduces.
	code, b := doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/triage?minimize=1", "")
	if code != http.StatusOK {
		t.Fatalf("triage = %d: %s", code, b)
	}
	var trip TriageResponse
	if err := json.Unmarshal(b, &trip); err != nil {
		t.Fatal(err)
	}
	if trip.Report.New != trip.Report.Total || trip.Report.Total == 0 {
		t.Fatalf("first triage not all-new: %d new of %d", trip.Report.New, trip.Report.Total)
	}
	for _, c := range trip.Report.Cases {
		if c.Minimized == nil || !c.Minimized.Reproduced {
			t.Errorf("case %s did not reproduce under minimization", c.TestID)
		}
	}

	// Record the suggested baseline.
	blBody, err := json.Marshal(trip.SuggestedBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if code, b := doJSON(t, http.MethodPut, ts.URL+"/v1/baseline", string(blBody)); code != http.StatusOK {
		t.Fatalf("baseline put = %d: %s", code, b)
	}
	code, b = doJSON(t, http.MethodGet, ts.URL+"/v1/baseline", "")
	if code != http.StatusOK {
		t.Fatalf("baseline get = %d: %s", code, b)
	}
	var bl triage.Baseline
	if err := json.Unmarshal(b, &bl); err != nil {
		t.Fatal(err)
	}
	if bl.Len() != trip.SuggestedBaseline.Len() {
		t.Fatalf("baseline round trip lost entries: %d != %d",
			bl.Len(), trip.SuggestedBaseline.Len())
	}

	// Same campaign again: every divergence is now known.
	st2 := submitJob(t, ts.URL, body)
	pollUntil(t, ts.URL, st2.ID, 2*time.Minute, StateDone)
	rep2 := fetchReport(t, ts.URL, st2.ID)
	if rep2.Baseline == nil {
		t.Fatal("baselined job has no partition in its report")
	}
	if rep2.Baseline.New != 0 || rep2.Baseline.Known != rep.LoFiDiffTests {
		t.Errorf("baselined re-run: %+v, want 0 new / %d known", rep2.Baseline, rep.LoFiDiffTests)
	}
	if !strings.Contains(rep2.Summary, "baseline:") {
		t.Error("baselined summary lacks the baseline line")
	}

	code, b = doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st2.ID+"/triage", "")
	if code != http.StatusOK {
		t.Fatalf("second triage = %d: %s", code, b)
	}
	var trip2 TriageResponse
	if err := json.Unmarshal(b, &trip2); err != nil {
		t.Fatal(err)
	}
	if trip2.Report.New != 0 || trip2.Report.Known != trip2.Report.Total {
		t.Errorf("baselined triage still new: %d new, %d known of %d",
			trip2.Report.New, trip2.Report.Known, trip2.Report.Total)
	}
	if trip2.Report.NewCluster != 0 {
		t.Errorf("baselined triage reports %d new clusters", trip2.Report.NewCluster)
	}
}

// TestTriageEndpointValidation pins the endpoint's error handling: unknown
// jobs 404, unfinished jobs 409, bad budgets 400, bad baselines (wrong
// version, garbage, a duplicate entry) 400.
func TestTriageEndpointValidation(t *testing.T) {
	_, ts := startServer(t, Options{MaxJobs: 1, DrainTimeout: time.Minute})

	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/job-9999/triage", ""); code != http.StatusNotFound {
		t.Errorf("unknown job triage = %d, want 404", code)
	}
	if code, b := doJSON(t, http.MethodPut, ts.URL+"/v1/baseline", `{"version":99,"entries":[]}`); code != http.StatusBadRequest {
		t.Errorf("bad baseline put = %d: %s", code, b)
	}
	if code, b := doJSON(t, http.MethodPut, ts.URL+"/v1/baseline", `garbage`); code != http.StatusBadRequest {
		t.Errorf("garbage baseline put = %d: %s", code, b)
	}
	dup := `{"version":1,"entries":[{"impl":"celer","signature":"a|x"},{"impl":"celer","signature":"a|x"}]}`
	if code, b := doJSON(t, http.MethodPut, ts.URL+"/v1/baseline", dup); code != http.StatusBadRequest {
		t.Errorf("duplicate-entry baseline put = %d: %s", code, b)
	}

	st := submitJob(t, ts.URL, `{"handlers":["leave"],"path_cap":8}`)
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/triage?budget=nope", ""); code == http.StatusOK {
		t.Error("bad budget accepted")
	}
	pollUntil(t, ts.URL, st.ID, 2*time.Minute, StateDone)
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/triage?budget=-1", ""); code != http.StatusBadRequest {
		t.Error("negative budget accepted")
	}
}
