package corpus

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func testExec() *ExecEntry {
	return &ExecEntry{
		Key: ExecKey{ProgSHA: ExecProgSHA([]byte{1, 2}, []byte{3}), MaxSteps: 4096, SnapVer: 2},
		Impls: []ExecOutcome{
			{Impl: "fidelis", Steps: 10, Snap: []byte("PKEM snapshot A")},
			{Impl: "celer", Steps: -1, Snap: []byte{}},
			{Impl: "hardware", Steps: 1 << 40, BaselineFault: true, Snap: []byte{0, 0xff, 7}},
		},
	}
}

// TestExecRecordRoundtrip encodes an entry, decodes it back field for
// field, and requires the decoded snapshots to alias the record.
func TestExecRecordRoundtrip(t *testing.T) {
	e := testExec()
	b, err := EncodeExecEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeExecEntry(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("decoded %+v\nwant %+v", got, e)
	}
	snap := got.Impls[0].Snap
	if i := bytes.Index(b, snap); i < 0 || &b[i] != &snap[0] || cap(snap) != len(snap) {
		t.Error("Snap does not alias the record with its capacity capped")
	}
	for n := 0; n < len(b); n++ {
		if _, err := DecodeExecEntry(b[:n]); err == nil {
			t.Fatalf("a record truncated to %d of %d bytes decodes", n, len(b))
		}
	}
	if _, err := DecodeExecEntry(append(b[:len(b):len(b)], 0)); err == nil {
		t.Error("a record with a trailing byte decodes")
	}
}

// TestExecRecordLimits: fields the length prefixes cannot hold are
// encoding errors, never truncated records.
func TestExecRecordLimits(t *testing.T) {
	long := testExec()
	long.Impls[1].Impl = strings.Repeat("x", 256)
	if _, err := EncodeExecEntry(long); err == nil {
		t.Error("a 256-byte implementation name encodes")
	}
	many := &ExecEntry{Impls: make([]ExecOutcome, 256)}
	if _, err := EncodeExecEntry(many); err == nil {
		t.Error("256 implementations encode")
	}
}

// TestExecKeyHashHasRecordVersion pins that the record version takes part
// in the exec key's address, so objects an earlier format (JSON) stored
// under the same key are never read as records.
func TestExecKeyHashHasRecordVersion(t *testing.T) {
	k := testExec().Key
	jsonEra := hashKey("exec", k.ProgSHA, strconv.Itoa(k.MaxSteps), strconv.Itoa(k.SnapVer))
	if k.Hash() == jsonEra {
		t.Error("the exec key hash ignores the record version")
	}
}

// TestExecJSONObjectMisses plants a JSON exec object at a record's address:
// the lookup must miss (and count the miss), not fail or hit.
func TestExecJSONObjectMisses(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := testExec()
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	path := c.objectPath(e.Key.Hash())
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetExec(e.Key); ok {
		t.Fatal("a JSON object hit as an exec record")
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Errorf("stats = %+v, want one miss", s)
	}
	if err := c.PutExec(e); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.GetExec(e.Key); !ok || !reflect.DeepEqual(got, e) {
		t.Errorf("after overwrite: got %+v, %v", got, ok)
	}
}

// FuzzDecodeExecEntry feeds hostile bytes to the exec record decoder: the
// corpus is untrusted input. Decoding must never panic, and a record that
// decodes has exactly one encoding, which decodes to the same entry.
func FuzzDecodeExecEntry(f *testing.F) {
	b, err := EncodeExecEntry(testExec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	empty, err := EncodeExecEntry(&ExecEntry{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add([]byte(execMagic))
	f.Add([]byte(`{"key":{"prog_sha":"00"},"impls":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeExecEntry(data)
		if err != nil {
			return
		}
		again, err := EncodeExecEntry(e)
		if err != nil {
			t.Fatalf("a decoded record does not encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoding changed the record:\n%x\n%x", data, again)
		}
		back, err := DecodeExecEntry(again)
		if err != nil {
			t.Fatalf("a re-encoded record does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, e) {
			t.Fatalf("round trip drifted:\n%+v\n%+v", e, back)
		}
	})
}
