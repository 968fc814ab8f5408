package triage

import (
	"bytes"
	"path/filepath"
	"testing"
)

func TestBaselineMatch(t *testing.T) {
	b := NewBaseline()
	b.Entries = []BaselineEntry{
		{Impl: "celer", Signature: "leave|esp"},
		{Impl: "celer", Signature: "mov|eax"},
		{Impl: "fidelis", Signature: "leave|esp"},
	}
	b.sortEntries()
	cases := []struct {
		impl, sig string
		want      bool
	}{
		{"celer", "leave|esp", true},
		{"celer", "mov|eax", true},
		{"fidelis", "leave|esp", true},
		// Signature alone must not match: the pair is the key.
		{"fidelis", "mov|eax", false},
		{"hardware", "leave|esp", false},
		{"celer", "leave|ebp", false},
		{"", "", false},
	}
	for _, c := range cases {
		if got := b.Match(c.impl, c.sig); got != c.want {
			t.Errorf("Match(%q, %q) = %v, want %v", c.impl, c.sig, got, c.want)
		}
	}
}

func TestBaselineNilMatchesNothing(t *testing.T) {
	var b *Baseline
	if b.Match("celer", "leave|esp") {
		t.Error("nil baseline matched")
	}
	if b.Len() != 0 {
		t.Errorf("nil baseline Len = %d", b.Len())
	}
}

func TestBaselineUpdate(t *testing.T) {
	rep := &Report{Version: ReportVersion, Clusters: []ClusterSummary{
		{Impl: "celer", Signature: "leave|esp", RootCause: "leave: non-atomic ESP update", Count: 3},
		{Impl: "celer", Signature: "mov|eax", RootCause: "other: mov|eax", Count: 1},
	}}
	b := NewBaseline()
	if added := b.Update(rep); added != 2 {
		t.Fatalf("first update added %d, want 2", added)
	}
	// Re-updating with a grown cluster refreshes the count without
	// duplicating the entry.
	rep.Clusters[0].Count = 5
	if added := b.Update(rep); added != 0 {
		t.Fatalf("second update added %d, want 0", added)
	}
	if b.Len() != 2 {
		t.Fatalf("entries = %d, want 2", b.Len())
	}
	if b.Entries[0].Count != 5 {
		t.Errorf("count not refreshed: %+v", b.Entries[0])
	}
}

func TestBaselineEncodeStable(t *testing.T) {
	mk := func(order []BaselineEntry) []byte {
		b := NewBaseline()
		b.Entries = append(b.Entries, order...)
		data, err := b.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	e1 := BaselineEntry{Impl: "celer", Signature: "a|x", Count: 1}
	e2 := BaselineEntry{Impl: "celer", Signature: "b|y", Count: 2}
	e3 := BaselineEntry{Impl: "fidelis", Signature: "a|x", Count: 3}
	fwd := mk([]BaselineEntry{e1, e2, e3})
	rev := mk([]BaselineEntry{e3, e2, e1})
	if !bytes.Equal(fwd, rev) {
		t.Errorf("encoding depends on insertion order:\n%s\nvs\n%s", fwd, rev)
	}
}

func TestBaselineDecodeRejects(t *testing.T) {
	if _, err := DecodeBaseline([]byte(`{"version":99,"entries":[]}`)); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := DecodeBaseline([]byte(`{"version":1,"entries":[{"impl":"","signature":"x"}]}`)); err == nil {
		t.Error("entry without impl accepted")
	}
	if _, err := DecodeBaseline([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
	dup := `{"version":1,"entries":[{"impl":"celer","signature":"a|x","count":1},` +
		`{"impl":"fidelis","signature":"a|x"},{"impl":"celer","signature":"a|x","count":2}]}`
	if b, err := DecodeBaseline([]byte(dup)); err == nil {
		t.Errorf("duplicate (impl, signature) accepted: Len %d", b.Len())
	}
}

// TestBaselineDecodeNullEntries: a null or missing entry list is an empty
// baseline, which re-encodes as [] like NewBaseline's.
func TestBaselineDecodeNullEntries(t *testing.T) {
	want, err := NewBaseline().Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{`{"version":1,"entries":null}`, `{"version":1}`} {
		b, err := DecodeBaseline([]byte(in))
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		got, err := b.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s re-encodes as\n%s\nwant\n%s", in, got, want)
		}
	}
}

func TestBaselineSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")

	// Missing file: no baseline, not an error.
	bl, err := LoadBaseline(path)
	if err != nil || bl != nil {
		t.Fatalf("missing file: %v, %v; want nil, nil", bl, err)
	}

	b := NewBaseline()
	b.Entries = []BaselineEntry{{Impl: "celer", Signature: "leave|esp", Count: 2}}
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.Match("celer", "leave|esp") {
		t.Errorf("round trip lost the entry: %+v", got)
	}
}
