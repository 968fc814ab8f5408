package service

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
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
