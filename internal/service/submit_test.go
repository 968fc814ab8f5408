package service

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"pokeemu/internal/campaign"
)

func decodeBody(body string) (Request, error) {
	return decodeSubmit(nil, io.NopCloser(strings.NewReader(body)))
}

// TestDecodeSubmit pins the submit body's limits: unknown fields, a body
// over the cap and a malformed body are errors; a good body decodes.
func TestDecodeSubmit(t *testing.T) {
	req, err := decodeBody(`{"handlers":["push_r"],"path_cap":8,"resume":true}`)
	if err != nil || req.PathCap != 8 || !req.Resume || len(req.Handlers) != 1 {
		t.Fatalf("good body: %+v, %v", req, err)
	}
	if _, err := decodeBody(`{"handlers":["push_r"],"pathcap":8}`); err == nil {
		t.Error("an unknown field decodes")
	}
	if _, err := decodeBody(`{"handlers":`); err == nil {
		t.Error("a truncated body decodes")
	}
	big := `{"handlers":["` + strings.Repeat("x", maxBodyBytes) + `"]}`
	var tooLarge *http.MaxBytesError
	if _, err := decodeBody(big); !errors.As(err, &tooLarge) {
		t.Errorf("a %d-byte body: err = %v, want a MaxBytesError", len(big), err)
	}
}

// TestSpecParity sends the same values through the CLI's flag parsing (the
// spec's flags as `pokeemu campaign` registers them) and through
// decodeSubmit + configFor. Both surfaces must make the same accept/reject
// decision and build equal campaign Configs, apart from pokeemud clamping
// both worker counts to its per-job cap. The CLI's worker default is one
// per CPU and pokeemud's is its cap; the test gives both the same value.
func TestSpecParity(t *testing.T) {
	const maxWorkers = 4
	s := &Server{opts: Options{MaxWorkersPerJob: maxWorkers}}
	for _, c := range []struct {
		args []string
		body string
	}{
		{nil, `{}`},
		{[]string{"-cap", "0"}, `{"path_cap":0}`},
		{[]string{"-cap", "1"}, `{"path_cap":1}`},
		{[]string{"-cap", "-1"}, `{"path_cap":-1}`},
		{[]string{"-seed", "0"}, `{"seed":0}`},
		{[]string{"-seed", "-5"}, `{"seed":-5}`},
		{[]string{"-workers", "0"}, `{"workers":0}`},
		{[]string{"-workers", "1"}, `{"workers":1}`},
		{[]string{"-workers", "-2"}, `{"workers":-2}`},
		{[]string{"-workers", "1000000"}, `{"workers":1000000}`},
		{[]string{"-workers", "9223372036854775807"}, `{"workers":9223372036854775807}`},
		{[]string{"-explore-workers", "0"}, `{"explore_workers":0}`},
		{[]string{"-explore-workers", "-1"}, `{"explore_workers":-1}`},
		{[]string{"-explore-workers", "1000000"}, `{"explore_workers":1000000}`},
		{[]string{"-instrs", "0"}, `{"max_instrs":0}`},
		{[]string{"-instrs", "-1"}, `{"max_instrs":-1}`},
		{[]string{"-instrs", "3"}, `{"max_instrs":3}`},
		{[]string{"-maxsteps", "-1"}, `{"max_steps":-1}`},
		{[]string{"-maxsteps", "100"}, `{"max_steps":100}`},
		{[]string{"-test-steps", "-9"}, `{"test_max_steps":-9}`},
		{[]string{"-test-steps", "0"}, `{"test_max_steps":0}`},
		{[]string{"-test-timeout", "0s"}, `{"test_timeout_ms":0}`},
		{[]string{"-test-timeout", "-1ms"}, `{"test_timeout_ms":-1}`},
		{[]string{"-test-timeout", "2s"}, `{"test_timeout_ms":2000}`},
		{[]string{"-stage-timeout", "-5s"}, `{"stage_timeout_ms":-5000}`},
		{[]string{"-stage-timeout", "1m"}, `{"stage_timeout_ms":60000}`},
		{[]string{"-hybrid-budget", "0"}, `{"hybrid_budget":0}`},
		{[]string{"-hybrid-budget", "-1"}, `{"hybrid_budget":-1}`},
		{[]string{"-hybrid-budget", "16", "-hybrid-seed", "-3"}, `{"hybrid_budget":16,"hybrid_seed":-3}`},
		{[]string{"-handlers", "push_r,leave", "-resume", "-no-cache", "-vote"},
			`{"handlers":["push_r","leave"],"resume":true,"no_cache":true,"vote":true}`},
		{[]string{"-handlers", ""}, `{"handlers":[]}`},
	} {
		var cli campaign.Spec
		fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
		cli.AddFlags(fs, false)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%q: %v", c.args, err)
		}
		want, cliErr := cli.Config(maxWorkers)
		want.Workers = min(want.Workers, maxWorkers)
		want.ExploreWorkers = min(want.ExploreWorkers, maxWorkers)

		req, err := decodeBody(c.body)
		if err != nil {
			t.Fatalf("%s: %v", c.body, err)
		}
		got, srvErr := s.configFor(&req)
		switch {
		case (cliErr == nil) != (srvErr == nil):
			t.Errorf("%q vs %s: CLI err %v, pokeemud err %v", c.args, c.body, cliErr, srvErr)
		case cliErr == nil && !reflect.DeepEqual(got, want):
			t.Errorf("%q vs %s:\nCLI      %+v\npokeemud %+v", c.args, c.body, want, got)
		}
	}
}

// FuzzSubmitRequest drives hostile submit bodies through the daemon's
// body decoder and request normalization, without starting a campaign.
// Nothing may panic, and every request configFor accepts must be a valid
// campaign config that echoes the normalized request.
func FuzzSubmitRequest(f *testing.F) {
	for _, seed := range []string{
		`{"handlers":["push_r"],"path_cap":8,"resume":true}`,
		`{"handlers":["push_r","leave"],"workers":64,"explore_workers":3,"seed":-5}`,
		`{"test_timeout_ms":9223372036854775807,"stage_timeout_ms":1}`,
		`{"hybrid_budget":-1}`,
		`{"max_instrs":2,"vote":true,"no_cache":true,"test_max_steps":100}`,
		`{"handlers":null}`,
		`{}`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	const maxWorkers = 4
	s := &Server{opts: Options{MaxWorkersPerJob: maxWorkers}}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeSubmit(nil, io.NopCloser(bytes.NewReader(body)))
		if err != nil {
			return
		}
		cfg, err := s.configFor(&req)
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted config fails Validate: %v\nrequest %+v", err, req)
		}
		if cfg.Workers < 1 || cfg.Workers > maxWorkers || cfg.ExploreWorkers > maxWorkers {
			t.Errorf("workers %d/%d escape the per-job cap %d", cfg.Workers, cfg.ExploreWorkers, maxWorkers)
		}
		if cfg.Seed == 0 || cfg.MaxPathsPerInstr == 0 {
			t.Errorf("defaults not applied: seed %d, path cap %d", cfg.Seed, cfg.MaxPathsPerInstr)
		}
		if cfg.Seed != req.Seed || cfg.MaxPathsPerInstr != req.PathCap || cfg.Workers != req.Workers {
			t.Errorf("config %+v does not echo the normalized request %+v", cfg, req)
		}
		if cfg.TestTimeout != time.Duration(req.TestTimeoutMS)*time.Millisecond ||
			cfg.TestTimeout/time.Millisecond != time.Duration(req.TestTimeoutMS) ||
			cfg.StageTimeout/time.Millisecond != time.Duration(req.StageTimeoutMS) {
			t.Errorf("timeouts %v/%v do not hold the requested %d/%d ms",
				cfg.TestTimeout, cfg.StageTimeout, req.TestTimeoutMS, req.StageTimeoutMS)
		}
	})
}
