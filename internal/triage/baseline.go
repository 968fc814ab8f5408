// Package triage turns raw campaign divergences into actionable emulator
// bugs: a deterministic ddmin-style minimizer that shrinks a divergent test
// case while preserving its divergence signature, a versioned baseline file
// of suppressed (known) divergences so re-runs report only regressions, and
// report diffing that emits the delta between two triage reports. This is
// the automation step the paper performed by hand on representative tests
// (Section 6), and what follow-up systems (Tamarin's disequivalence
// localization, the ARM deviation-locating work) showed is required to run
// differential testing at scale.
package triage

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// BaselineVersion is the on-disk format version of baseline files. Load and
// Decode reject any other version: a baseline silently misread as empty
// would turn every known divergence into a "new" regression (or worse, the
// reverse), so the format is checked explicitly.
const BaselineVersion = 1

// BaselineEntry suppresses one divergence cluster: a lo-fi implementation
// plus the cluster signature, with the root cause and test count recorded
// when the entry was added (documentation for the human reading the file;
// matching uses only Impl and Signature).
type BaselineEntry struct {
	Impl      string `json:"impl"`      // the non-oracle side (e.g. "celer")
	Signature string `json:"signature"` // diff.Difference.Signature()
	RootCause string `json:"root_cause,omitempty"`
	Count     int    `json:"count,omitempty"` // tests in the cluster when recorded
}

// Baseline is a set of known divergences. Entries are kept sorted by
// (Impl, Signature) so Encode is byte-stable: the same set always
// serializes to the same file, and version-control diffs of a committed
// baseline stay minimal.
type Baseline struct {
	Version int             `json:"version"`
	Entries []BaselineEntry `json:"entries"`
}

// NewBaseline returns an empty baseline at the current version.
func NewBaseline() *Baseline {
	return &Baseline{Version: BaselineVersion, Entries: []BaselineEntry{}}
}

// Match reports whether the (impl, signature) pair is a known divergence.
// A nil baseline matches nothing: every divergence is new.
func (b *Baseline) Match(impl, signature string) bool {
	if b == nil {
		return false
	}
	i := sort.Search(len(b.Entries), func(i int) bool {
		e := b.Entries[i]
		return e.Impl > impl || (e.Impl == impl && e.Signature >= signature)
	})
	return i < len(b.Entries) && b.Entries[i].Impl == impl && b.Entries[i].Signature == signature
}

// Len returns the number of suppressed clusters (0 for nil).
func (b *Baseline) Len() int {
	if b == nil {
		return 0
	}
	return len(b.Entries)
}

// Update merges every cluster of the report into the baseline and returns
// how many entries were added. Existing entries keep their recorded root
// cause but refresh their count; the entry list stays sorted.
func (b *Baseline) Update(r *Report) int {
	added := 0
	for _, cl := range r.Clusters {
		if b.Match(cl.Impl, cl.Signature) {
			for i := range b.Entries {
				if b.Entries[i].Impl == cl.Impl && b.Entries[i].Signature == cl.Signature {
					b.Entries[i].Count = cl.Count
				}
			}
			continue
		}
		b.Entries = append(b.Entries, BaselineEntry{
			Impl: cl.Impl, Signature: cl.Signature, RootCause: cl.RootCause, Count: cl.Count,
		})
		added++
	}
	b.sortEntries()
	return added
}

func (b *Baseline) sortEntries() {
	sort.Slice(b.Entries, func(i, j int) bool {
		if b.Entries[i].Impl != b.Entries[j].Impl {
			return b.Entries[i].Impl < b.Entries[j].Impl
		}
		return b.Entries[i].Signature < b.Entries[j].Signature
	})
}

// Encode serializes the baseline: sorted entries, indented JSON, trailing
// newline. Byte-stable for a given entry set.
func (b *Baseline) Encode() ([]byte, error) {
	b.sortEntries()
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("triage: encoding baseline: %w", err)
	}
	return append(out, '\n'), nil
}

// DecodeBaseline parses and validates a baseline file. Two entries for one
// (impl, signature) pair are an error: Len would count the cluster twice
// and Encode could order the pair either way. A null or missing entry
// list decodes as empty.
func DecodeBaseline(data []byte) (*Baseline, error) {
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("triage: decoding baseline: %w", err)
	}
	if b.Version != BaselineVersion {
		return nil, fmt.Errorf("triage: baseline version %d, want %d", b.Version, BaselineVersion)
	}
	if b.Entries == nil {
		b.Entries = []BaselineEntry{}
	}
	for _, e := range b.Entries {
		if e.Impl == "" || e.Signature == "" {
			return nil, fmt.Errorf("triage: baseline entry missing impl or signature: %+v", e)
		}
	}
	b.sortEntries()
	for i := 1; i < len(b.Entries); i++ {
		if e := b.Entries[i]; e.Impl == b.Entries[i-1].Impl && e.Signature == b.Entries[i-1].Signature {
			return nil, fmt.Errorf("triage: baseline lists (%s, %s) twice", e.Impl, e.Signature)
		}
	}
	return &b, nil
}

// LoadBaseline reads a baseline from disk. A missing file is not an error:
// it returns (nil, nil), meaning "no baseline — everything is new", which is
// the natural first run of a CI gate before any baseline was recorded.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("triage: reading baseline: %w", err)
	}
	return DecodeBaseline(data)
}

// SaveBaseline writes the baseline to disk in the stable encoding.
func (b *Baseline) Save(path string) error {
	data, err := b.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("triage: writing baseline: %w", err)
	}
	return nil
}
