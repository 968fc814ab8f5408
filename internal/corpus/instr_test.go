package corpus

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// jsonRoundTrip is what the JSON instr objects of earlier builds returned
// for e: the decoded record must equal it.
func jsonRoundTrip(t testing.TB, e *InstrEntry) *InstrEntry {
	t.Helper()
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var back InstrEntry
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	return &back
}

// TestInstrRecordRoundtrip encodes entries shaped like the campaign's,
// and requires each to decode to exactly what the JSON round trip gave,
// its programs to alias the record, and every truncation to fail.
func TestInstrRecordRoundtrip(t *testing.T) {
	many := testEntry("leave")
	many.Key.Seed, many.Key.MaxSteps = -7, 1<<40
	many.Tests[0].Diffs = map[string]uint64{"st_eax": 7, "mem[0x1000]": 1 << 63, "": 0}
	many.Tests[1].Outcome = Outcome{Kind: 2, Vector: 14, ErrCode: 0xdeadbeef, HasErr: true, Soft: true}
	many.Tests[1].TestOffset = 9
	for name, e := range map[string]*InstrEntry{
		"tests":      testEntry("push_r"),
		"many-diffs": many,
		"no-tests":   {Key: testKey("hlt"), HandlerName: "hlt", Mnemonic: "hlt", Paths: 1, GenFailed: 1},
		"empty-diff-map": {Key: testKey("nop"), Tests: []CachedTest{
			{ID: "nop#0", Diffs: map[string]uint64{}, Prog: []byte{0x90}},
		}},
	} {
		b, err := EncodeInstrEntry(e)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := DecodeInstrEntry(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := jsonRoundTrip(t, e); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded %+v\nJSON round trip %+v", name, got, want)
		}
		for _, ct := range got.Tests {
			if i := bytes.Index(b, ct.Prog); i < 0 || &b[i] != &ct.Prog[0] || cap(ct.Prog) != len(ct.Prog) {
				t.Errorf("%s: Prog does not alias the record with its capacity capped", name)
			}
		}
		for n := 0; n < len(b); n++ {
			if _, err := DecodeInstrEntry(b[:n]); err == nil {
				t.Fatalf("%s: a record truncated to %d of %d bytes decodes", name, n, len(b))
			}
		}
		if _, err := DecodeInstrEntry(append(b[:len(b):len(b)], 0)); err == nil {
			t.Errorf("%s: a record with a trailing byte decodes", name)
		}
	}
}

// TestInstrRecordRejectsNonCanonical: a record has one encoding, so diff
// keys out of order or repeated, flags other than 0 and 1, and counts
// larger than the bytes left are malformed.
func TestInstrRecordRejectsNonCanonical(t *testing.T) {
	e := &InstrEntry{Key: testKey("inc_r"), HandlerName: "inc_r", Mnemonic: "inc", Tests: []CachedTest{
		{ID: "inc_r#0", Diffs: map[string]uint64{"k1": 1, "k2": 2}, Prog: []byte{0x40, 0xf4}},
	}}
	good, err := EncodeInstrEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeInstrEntry(good); err != nil {
		t.Fatal(err)
	}
	k1, k2 := bytes.Index(good, []byte("k1")), bytes.Index(good, []byte("k2"))
	exhausted := len(instrMagic) + 2 + 2 + len(e.Key.Handler) + 3*8 + 2 + len(e.Key.Config) + 2*8 +
		2 + len(e.HandlerName) + 2 + len(e.Mnemonic) + 8
	testCount := exhausted + 1 + 4*8
	hasErr := testCount + 4 + 2 + len(e.Tests[0].ID) + 8 + 1 + 1 + 4
	diffCount := hasErr + 2
	for name, mutate := range map[string]func(b []byte){
		"unsorted keys":     func(b []byte) { b[k1+1], b[k2+1] = '2', '1' },
		"duplicate keys":    func(b []byte) { b[k2+1] = '1' },
		"exhausted flag 2":  func(b []byte) { b[exhausted] = 2 },
		"has-err flag 0xff": func(b []byte) { b[hasErr] = 0xff },
		"soft flag 2":       func(b []byte) { b[hasErr+1] = 2 },
		"bad magic":         func(b []byte) { b[0] = 'X' },
		"next version":      func(b []byte) { b[len(instrMagic)]++ },
		"huge test count":   func(b []byte) { binary.LittleEndian.PutUint32(b[testCount:], 1<<31) },
		"extra test":        func(b []byte) { b[testCount]++ },
		"huge diff count":   func(b []byte) { binary.LittleEndian.PutUint32(b[diffCount:], 1<<31) },
		"extra diff":        func(b []byte) { b[diffCount]++ },
	} {
		b := bytes.Clone(good)
		mutate(b)
		if bytes.Equal(b, good) {
			t.Fatalf("%s: the mutation changed nothing", name)
		}
		if _, err := DecodeInstrEntry(b); err == nil {
			t.Errorf("%s: decodes", name)
		}
	}
}

// TestInstrRecordLimits: fields the length prefixes cannot hold are
// encoding errors, never truncated records.
func TestInstrRecordLimits(t *testing.T) {
	long := strings.Repeat("x", 1<<16)
	for name, mutate := range map[string]func(e *InstrEntry){
		"handler":  func(e *InstrEntry) { e.Key.Handler = long },
		"config":   func(e *InstrEntry) { e.Key.Config = long },
		"mnemonic": func(e *InstrEntry) { e.Mnemonic = long },
		"test id":  func(e *InstrEntry) { e.Tests[1].ID = long },
		"diff key": func(e *InstrEntry) { e.Tests[0].Diffs[long] = 1 },
	} {
		e := testEntry("push_r")
		mutate(e)
		if _, err := EncodeInstrEntry(e); err == nil {
			t.Errorf("a %d-byte %s encodes", len(long), name)
		}
	}
	// The longest strings the prefixes hold still round-trip.
	e := testEntry("push_r")
	e.Tests[1].ID = long[1:]
	b, err := EncodeInstrEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeInstrEntry(b); err != nil || got.Tests[1].ID != e.Tests[1].ID {
		t.Errorf("a 65,535-byte test ID does not round-trip: %v", err)
	}
}

// TestInstrKeyHashHasRecordVersion pins that the record version takes part
// in the instr key's address, so objects an earlier format (JSON) stored
// under the same key are never read as records.
func TestInstrKeyHashHasRecordVersion(t *testing.T) {
	k := testKey("push_r")
	jsonEra := hashKey("instr", k.Handler, strconv.Itoa(k.PathCap), strconv.Itoa(k.MaxSteps),
		strconv.FormatInt(k.Seed, 10), k.Config, strconv.Itoa(k.SymexVersion), strconv.Itoa(k.GenVersion))
	if k.Hash() == jsonEra {
		t.Error("the instr key hash ignores the record version")
	}
}

// TestInstrJSONObjectMisses plants a JSON instr object at a record's
// address: the lookup must miss (and count the miss), not fail or hit.
func TestInstrJSONObjectMisses(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry("push_r")
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
	if _, ok := c.GetInstr(e.Key); ok {
		t.Fatal("a JSON object hit as an instr record")
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Errorf("stats = %+v, want one miss", s)
	}
	if err := c.PutInstr(e); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.GetInstr(e.Key); !ok || !reflect.DeepEqual(got, jsonRoundTrip(t, e)) {
		t.Errorf("after overwrite: got %+v, %v", got, ok)
	}
}

// FuzzDecodeInstrEntry feeds hostile bytes to the instr record decoder:
// the corpus is untrusted input. Decoding must never panic, and a record
// that decodes has exactly one encoding, which decodes to the same entry.
func FuzzDecodeInstrEntry(f *testing.F) {
	for _, e := range []*InstrEntry{testEntry("push_r"), {}} {
		b, err := EncodeInstrEntry(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(instrMagic))
	f.Add([]byte(`{"key":{"handler":"push_r"},"tests":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeInstrEntry(data)
		if err != nil {
			return
		}
		again, err := EncodeInstrEntry(e)
		if err != nil {
			t.Fatalf("a decoded record does not encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoding changed the record:\n%x\n%x", data, again)
		}
		back, err := DecodeInstrEntry(again)
		if err != nil {
			t.Fatalf("a re-encoded record does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, e) {
			t.Fatalf("round trip drifted:\n%+v\n%+v", e, back)
		}
	})
}
