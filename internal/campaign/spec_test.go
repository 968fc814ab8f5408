package campaign

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestSpecKnobsCoverFields: the spec table has exactly one row per Spec
// field, bound to that field, under the field's JSON name, so the table
// the CLI registers and the schema pokeemud decodes cannot drift apart.
func TestSpecKnobsCoverFields(t *testing.T) {
	var s Spec
	knobs := s.Knobs()
	v := reflect.ValueOf(&s).Elem()
	if len(knobs) != v.NumField() {
		t.Fatalf("%d knobs for %d Spec fields", len(knobs), v.NumField())
	}
	flags := map[string]bool{}
	for i, k := range knobs {
		f := v.Type().Field(i)
		if reflect.ValueOf(k.p).Pointer() != v.Field(i).Addr().Pointer() {
			t.Errorf("knob -%s is not bound to field %s", k.Flag, f.Name)
		}
		if json, _, _ := strings.Cut(f.Tag.Get("json"), ","); json != k.JSON {
			t.Errorf("knob -%s says JSON %q, field %s is tagged %q", k.Flag, k.JSON, f.Name, json)
		}
		if flags[k.Flag] {
			t.Errorf("flag -%s appears twice", k.Flag)
		}
		flags[k.Flag] = true
	}
}

// TestSpecConfig: zeros take the defaults, the worker default is the
// caller's, out-of-bounds values are rejected naming both the JSON field
// and the flag, and the normalized values are written back to the spec.
func TestSpecConfig(t *testing.T) {
	s := Spec{Handlers: []string{}, TestTimeoutMS: 1500, HybridBudget: 8}
	cfg, err := s.Config(3)
	if err != nil {
		t.Fatal(err)
	}
	want := Config{MaxPathsPerInstr: DefaultPathCap, Seed: 1, Workers: 3,
		TestTimeout: 1500 * time.Millisecond, Hybrid: HybridConfig{Budget: 8}}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("config %+v, want %+v", cfg, want)
	}
	if s.PathCap != DefaultPathCap || s.Seed != 1 || s.Workers != 3 || s.Handlers != nil {
		t.Errorf("spec not normalized in place: %+v", s)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("normalized config fails Validate: %v", err)
	}

	const maxMS = math.MaxInt64 / int64(time.Millisecond)
	for _, c := range []struct {
		spec Spec
		want string
	}{
		{Spec{PathCap: -1}, "path_cap (-cap) must be >= 1"},
		{Spec{Workers: -2}, "workers (-workers) must be >= 1"},
		{Spec{HybridBudget: -1}, "hybrid_budget (-hybrid-budget) must be >= 0"},
		{Spec{StageTimeoutMS: -5}, "stage_timeout_ms (-stage-timeout) must be >= 0"},
		{Spec{TestTimeoutMS: maxMS + 1}, "test_timeout_ms (-test-timeout) must be <= "},
	} {
		if _, err := c.spec.Config(1); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Config(%+v) = %v, want %q", c.spec, err, c.want)
		}
	}
	if _, err := (&Spec{Seed: -7, HybridSeed: -1, TestTimeoutMS: maxMS}).Config(1); err != nil {
		t.Errorf("negative seeds or the largest timeout rejected: %v", err)
	}
}
