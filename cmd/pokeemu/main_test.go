package main

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pokeemu/internal/campaign"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestTraceGolden pins the `pokeemu trace` output byte for byte on each
// implementation, for a small program that exercises arithmetic, stack
// traffic, flags, and the halt path. Regenerate intentionally with:
// go test ./cmd/pokeemu -run TestTraceGolden -update
func TestTraceGolden(t *testing.T) {
	// mov eax,0x2a; push eax; pop ebx; add ebx,eax; hlt
	prog, err := hex.DecodeString("b82a000000505b01c3f4")
	if err != nil {
		t.Fatal(err)
	}
	for _, impl := range []string{"fidelis", "celer", "hardware"} {
		t.Run(impl, func(t *testing.T) {
			var buf bytes.Buffer
			if err := runTrace(&buf, impl, prog, 64); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, filepath.Join("testdata", "trace_"+impl+".golden"), buf.Bytes())
		})
	}
}

func TestTraceUnknownImpl(t *testing.T) {
	var buf bytes.Buffer
	if err := runTrace(&buf, "qemu", nil, 1); err == nil {
		t.Error("expected error for unknown implementation")
	}
}

// TestValidateCampaignFlags: edge-case flag values error instead of
// hanging (workers) or misbehaving silently (negative caps and budgets).
// The "triage-" cases parse a triage command line through the same shared
// flag block, pinning that triage validates exactly like campaign does.
func TestValidateCampaignFlags(t *testing.T) {
	cases := []struct {
		name                                            string
		workers, exWorkers, cap, instrs, steps, tsSteps int
		timeout, stage                                  time.Duration
		wantErr                                         string
	}{
		{"ok-defaults", 4, 0, 256, 0, 0, 0, 0, 0, ""},
		{"ok-explore-workers", 4, 8, 256, 0, 0, 0, 0, 0, ""},
		{"ok-stage-timeout", 4, 0, 256, 0, 0, 0, 0, time.Minute, ""},
		{"zero-workers", 0, 0, 256, 0, 0, 0, 0, 0, "-workers"},
		{"negative-workers", -3, 0, 256, 0, 0, 0, 0, 0, "-workers"},
		{"negative-explore-workers", 4, -1, 256, 0, 0, 0, 0, 0, "-explore-workers"},
		{"zero-cap", 1, 0, 0, 0, 0, 0, 0, 0, "-cap"},
		{"negative-instrs", 1, 0, 8, -1, 0, 0, 0, 0, "-instrs"},
		{"negative-maxsteps", 1, 0, 8, 0, -1, 0, 0, 0, "-maxsteps"},
		{"negative-test-steps", 1, 0, 8, 0, 0, -9, 0, 0, "-test-steps"},
		{"negative-test-timeout", 1, 0, 8, 0, 0, 0, -time.Second, 0, "-test-timeout"},
		{"negative-stage-timeout", 1, 0, 8, 0, 0, 0, 0, -time.Second, "-stage-timeout"},
	}
	check := func(t *testing.T, err error, wantErr string) {
		t.Helper()
		if wantErr == "" {
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			return
		}
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("err = %v, want mention of %q", err, wantErr)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := campaignFlags{workers: c.workers, exploreWorkers: c.exWorkers, cap: c.cap, instrs: c.instrs,
				maxSteps: c.steps, testSteps: c.tsSteps, testTimeout: c.timeout, stageTimeout: c.stage}
			_, err := f.config()
			check(t, err, c.wantErr)
		})
	}

	triageCases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"triage-ok", []string{"-cap", "8", "-workers", "2", "-handlers", "push_r"}, ""},
		{"triage-zero-cap", []string{"-cap", "0", "-handlers", "push_r"}, "-cap"},
		{"triage-zero-workers", []string{"-workers", "0", "-handlers", "push_r"}, "-workers"},
		{"triage-negative-explore-workers", []string{"-explore-workers", "-2"}, "-explore-workers"},
		{"triage-negative-test-steps", []string{"-test-steps", "-1"}, "-test-steps"},
	}
	for _, c := range triageCases {
		t.Run(c.name, func(t *testing.T) {
			fs := flag.NewFlagSet("triage", flag.ContinueOnError)
			cf := addCampaignFlags(fs)
			if err := fs.Parse(c.args); err != nil {
				t.Fatal(err)
			}
			cfg, err := cf.config()
			check(t, err, c.wantErr)
			if err == nil && (cfg.MaxPathsPerInstr != 8 || cfg.Workers != 2 || len(cfg.Handlers) != 1) {
				t.Errorf("config %+v does not reflect %v", cfg, c.args)
			}
		})
	}
}

// TestProgressPrinter: throttled rendering — stage entries, every ~5%, and
// the final unit always print; a mid-stage non-step event does not.
func TestProgressPrinter(t *testing.T) {
	var buf bytes.Buffer
	p := progressPrinter(&buf)
	p(campaign.Event{Stage: campaign.StageExplore, Done: 0, Total: 100})
	p(campaign.Event{Stage: campaign.StageExplore, Key: "a", Done: 3, Total: 100}) // throttled out
	p(campaign.Event{Stage: campaign.StageExplore, Key: "b", Done: 5, Total: 100})
	p(campaign.Event{Stage: campaign.StageExplore, Key: "c", Done: 100, Total: 100})
	out := buf.String()
	if got := strings.Count(out, "\n"); got != 3 {
		t.Fatalf("printed %d lines, want 3:\n%s", got, out)
	}
	if strings.Contains(out, " a\n") || !strings.Contains(out, " b\n") || !strings.Contains(out, " c\n") {
		t.Errorf("throttling wrong:\n%s", out)
	}
}

func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if string(want) != string(got) {
		t.Errorf("output differs from %s (run with -update to regenerate):\n--- want:\n%s\n--- got:\n%s",
			path, want, got)
	}
}
