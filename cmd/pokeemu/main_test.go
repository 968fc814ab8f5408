package main

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"pokeemu/internal/campaign"
	"pokeemu/internal/service"
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
// hanging or misbehaving silently (negative counts, caps and budgets),
// and a zero means the knob's default, as it does over pokeemud. The
// "triage-" cases parse a triage command line through the same shared
// flag block, pinning that triage validates exactly like campaign does.
func TestValidateCampaignFlags(t *testing.T) {
	ncpu := runtime.NumCPU()
	cases := []struct {
		name    string
		args    []string
		wantErr string
		want    func(campaign.Config) bool
	}{
		{"ok-defaults", nil, "", func(c campaign.Config) bool {
			return c.MaxPathsPerInstr == campaign.DefaultPathCap && c.Seed == 1 && c.Workers == ncpu
		}},
		{"ok-explore-workers", []string{"-workers", "4", "-explore-workers", "8"}, "", func(c campaign.Config) bool {
			return c.Workers == 4 && c.ExploreWorkers == 8
		}},
		{"ok-stage-timeout", []string{"-stage-timeout", "1m"}, "", func(c campaign.Config) bool {
			return c.StageTimeout == time.Minute
		}},
		{"zero-workers", []string{"-workers", "0"}, "", func(c campaign.Config) bool { return c.Workers == ncpu }},
		{"negative-workers", []string{"-workers", "-3"}, "-workers", nil},
		{"negative-explore-workers", []string{"-explore-workers", "-1"}, "-explore-workers", nil},
		{"zero-cap", []string{"-cap", "0"}, "", func(c campaign.Config) bool {
			return c.MaxPathsPerInstr == campaign.DefaultPathCap
		}},
		{"negative-instrs", []string{"-instrs", "-1"}, "-instrs", nil},
		{"negative-maxsteps", []string{"-maxsteps", "-1"}, "-maxsteps", nil},
		{"negative-test-steps", []string{"-test-steps", "-9"}, "-test-steps", nil},
		{"negative-test-timeout", []string{"-test-timeout", "-1s"}, "-test-timeout", nil},
		{"negative-stage-timeout", []string{"-stage-timeout", "-1s"}, "-stage-timeout", nil},
		{"triage-ok", []string{"-cap", "8", "-workers", "2", "-handlers", "push_r"}, "", func(c campaign.Config) bool {
			return c.MaxPathsPerInstr == 8 && c.Workers == 2 && len(c.Handlers) == 1
		}},
		{"triage-zero-cap", []string{"-cap", "0", "-handlers", "push_r"}, "", func(c campaign.Config) bool {
			return c.MaxPathsPerInstr == campaign.DefaultPathCap
		}},
		{"triage-zero-workers", []string{"-workers", "0", "-handlers", "push_r"}, "", func(c campaign.Config) bool {
			return c.Workers == ncpu
		}},
		{"triage-negative-explore-workers", []string{"-explore-workers", "-2"}, "-explore-workers", nil},
		{"triage-negative-test-steps", []string{"-test-steps", "-1"}, "-test-steps", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var cf campaignFlags
			fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
			cf.add(fs, strings.HasPrefix(c.name, "triage-"))
			if err := fs.Parse(c.args); err != nil {
				t.Fatal(err)
			}
			cfg, err := cf.config()
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want mention of %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !c.want(cfg) {
				t.Errorf("config %+v does not reflect %v", cfg, c.args)
			}
		})
	}
}

// TestCampaignFlagsRejectSubMillisecond: a timeout the wire cannot carry
// (pokeemud takes whole milliseconds) is a parse error, not a silent zero.
func TestCampaignFlagsRejectSubMillisecond(t *testing.T) {
	var cf campaignFlags
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	cf.add(fs, false)
	fs.SetOutput(io.Discard)
	if err := fs.Parse([]string{"-test-timeout", "500us"}); err == nil {
		t.Errorf("-test-timeout 500us parsed as %d ms", cf.spec.TestTimeoutMS)
	}
	if err := fs.Parse([]string{"-test-timeout", "1500ms", "-handlers", "push_r,leave"}); err != nil ||
		cf.spec.TestTimeoutMS != 1500 || len(cf.spec.Handlers) != 2 {
		t.Errorf("parsed %+v, %v", cf.spec, err)
	}
}

// TestKnobTable pins the campaign knob table and the knob counts the
// project tracks: campaign.Config's fields, pokeemud's request fields and
// the campaign and triage flags. A new knob anywhere shows up as a diff;
// regenerate deliberately with:
// go test ./cmd/pokeemu -run TestKnobTable -update
func TestKnobTable(t *testing.T) {
	cfs, _ := campaignCommand()
	tfs, _ := triageCommand()
	var spec campaign.Spec
	knobs := spec.Knobs()

	var b strings.Builder
	fmt.Fprintf(&b, "campaign.Config fields: %d (HybridConfig: %d)\n",
		reflect.TypeOf(campaign.Config{}).NumField(), reflect.TypeOf(campaign.HybridConfig{}).NumField())
	fmt.Fprintf(&b, "pokeemud request fields: %d\n", reflect.TypeOf(service.Request{}).NumField())
	fmt.Fprintf(&b, "pokeemu campaign flags: %d\n", countFlags(cfs))
	fmt.Fprintf(&b, "pokeemu triage flags: %d\n\n", countFlags(tfs))

	fmt.Fprintf(&b, "%-16s %-17s %-8s %-22s %s\n", "flag", "json", "zero", "bound", "triage")
	inSpec := map[string]bool{}
	for _, k := range knobs {
		inSpec[k.Flag] = true
		zero := "-"
		switch {
		case k.Default == campaign.SurfaceWorkers:
			zero = "surface"
		case k.Default != 0:
			zero = fmt.Sprint(k.Default)
		}
		bound := "-" // a bool or a handler list
		switch {
		case k.Min == math.MinInt64:
			bound = "any"
		case k.MS:
			bound = fmt.Sprintf(">= %d ms", k.Min)
		case cfs.Lookup(k.Flag).DefValue == "0": // an integer flag
			bound = fmt.Sprintf(">= %d", k.Min)
		}
		tri := ""
		if k.Triage {
			tri = "yes"
		}
		if cfs.Lookup(k.Flag) == nil || (k.Triage != (tfs.Lookup(k.Flag) != nil)) {
			t.Errorf("knob -%s is not registered as its row says", k.Flag)
		}
		line := fmt.Sprintf("-%-15s %-17s %-8s %-22s %s", k.Flag, k.JSON, zero, bound, tri)
		fmt.Fprintln(&b, strings.TrimRight(line, " "))
	}
	for _, fs := range []*flag.FlagSet{cfs, tfs} {
		var own []string
		fs.VisitAll(func(f *flag.Flag) {
			if !inSpec[f.Name] {
				own = append(own, "-"+f.Name)
			}
		})
		fmt.Fprintf(&b, "\n%s only: %s\n", fs.Name(), strings.Join(own, " "))
	}
	compareGolden(t, filepath.Join("testdata", "knobs.golden"), []byte(b.String()))
}

func countFlags(fs *flag.FlagSet) int {
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	return n
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
