package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
)

// expectation is a workload family's deterministic output for one seed.
type expectation struct {
	Digest string           `json:"digest"`
	Counts map[string]int64 `json:"counts"`
}

// pinned holds the seed-1 outputs, measured at the commit that defined the
// benchmark. mix-cold and mix-warm share the "mix" report.
var pinned = map[string]expectation{
	"mix": {
		Digest: "5daa3a065d643fe4c5d95d60dea74973ae094fd4ff12261337df0736a742de9b",
		Counts: map[string]int64{"paths": 1322, "tests": 1287, "lofi_diff_tests": 366, "hifi_diff_tests": 28},
	},
	"equiv": {
		Digest: "996c7081af943d7a56716d9aa58e1d7caaed5c38bd033f7e7f4f2420a154e6e9",
		Counts: map[string]int64{"equiv": 427, "diverges": 20, "unknown": 222, "queries": 1603},
	},
	"hybrid": {
		Digest: "4c4fc2ad688f9da79a949236e3098ea18be7fcdefcd187c18c4b7862d639a53c",
		Counts: map[string]int64{
			"paths": 306, "tests": 294, "lofi_diff_tests": 138, "hifi_diff_tests": 14,
			"hybrid.seeds": 294, "hybrid.seed_signatures": 262, "hybrid.execs": 1024,
			"hybrid.skipped": 0, "hybrid.deduped": 404, "hybrid.new_coverage": 309,
			"hybrid.divergent": 152, "hybrid.promising": 162, "hybrid.reseeds": 2,
			"hybrid.reseed_tests": 8, "hybrid.signatures": 890, "hybrid.edges": 2366,
		},
	},
}

// checkExpected compares an outcome with the pinned seed-1 output, or for
// any other seed with the first run of that seed (recorded under stateDir
// on first sight). equiv-proof's verdict counts do not depend on the seed
// (only the check order does), so they are pinned for every seed, and
// hybrid-fuzz runs the seed-1 inputs on every seed.
func checkExpected(o *outcome, seed int64) []string {
	if o.family == "hybrid" {
		seed = hybridSeed // the same inputs on every seed
	}
	var problems []string
	want, ok := pinned[o.family]
	if o.family == "equiv" && !maps.Equal(o.counts, want.Counts) {
		problems = append(problems, fmt.Sprintf("verdict counts %v, want %v", o.counts, want.Counts))
	}
	if seed != 1 || !ok {
		var err error
		if want, err = recorded(o, seed); err != nil {
			return append(problems, err.Error())
		}
	}
	if o.digest != want.Digest {
		problems = append(problems, fmt.Sprintf("report digest %s, want %s", o.digest, want.Digest))
	}
	if !maps.Equal(o.counts, want.Counts) {
		problems = append(problems, fmt.Sprintf("counts %v, want %v", o.counts, want.Counts))
	}
	return problems
}

// recorded returns the first recorded output of (family, seed), recording
// o as that output if there is none yet.
func recorded(o *outcome, seed int64) (expectation, error) {
	path := filepath.Join(stateDir, "expect", fmt.Sprintf("%s-seed%d.json", o.family, seed))
	var e expectation
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &e); err != nil {
			return e, fmt.Errorf("corrupt expectation %s: %v", path, err)
		}
		return e, nil
	}
	e = expectation{Digest: o.digest, Counts: o.counts}
	b, err := json.Marshal(e)
	if err != nil {
		return e, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return e, err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return e, err
	}
	return e, os.Rename(tmp, path)
}
